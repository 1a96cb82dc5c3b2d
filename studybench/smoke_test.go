package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent re-executes itself for a child role.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeFlags runs a workload at a tiny scale from the repository root's
// golden files.
func smokeFlags(t *testing.T, workload string, trace int) runFlags {
	return runFlags{
		workload: workload,
		seed:     3,
		seconds:  1,
		trace:    trace,
		deadline: 60 * time.Second,
		work:     t.TempDir(),
		golden:   filepath.Join("..", "testdata", "golden"),
		scale:    0.002,
	}
}

// TestSmokeEachWorkload runs every workload, traced, at a tiny scale
// through the whole parent path: golden check, study children under the
// deadline, and the msgscope.Run reference check.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole studies")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			res, err := run(context.Background(), smokeFlags(t, w.name, 1), &stdout, &stderr)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v\n%s", res, stderr.String())
			}
			checkAgainstSpec(t, res, declared(t).PerLayer)
			if w.restore && res.Metrics["checkpoint.restore_s"].Value <= 0 {
				t.Errorf("durable run reports restore_s %v", res.Metrics["checkpoint.restore_s"].Value)
			}
		})
	}
}

// TestUntracedRunReportsEveryEndToEndMetric checks the untraced output
// shape: every end-to-end metric, non-zero, with its unit.
func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole studies")
	}
	var stdout, stderr bytes.Buffer
	f := smokeFlags(t, "join-collect", 0)
	f.seconds = 24 // three studies
	res, err := run(context.Background(), f, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if res.Attempted != 3 {
		t.Errorf("untraced run attempted %d studies, want 3", res.Attempted)
	}
	spec := declared(t).EndToEnd
	checkAgainstSpec(t, res, spec)
	for _, m := range spec {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.Name, res.Metrics[m.Name].Value)
		}
	}
}

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name, Unit string
}

// declared reads the metrics BENCHMARK.json at the repository root
// declares.
func declared(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkAgainstSpec wants exactly the declared metrics, in their units.
func checkAgainstSpec(t *testing.T, res result, spec []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(spec) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(spec))
	}
	for _, m := range spec {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s = %+v (reported %v), declared in %s", m.Name, got, ok, m.Unit)
		}
	}
}

// TestDeadlineStopsAStudy gives a full-size study far too little time and
// checks that it is stopped promptly and reported as a failure naming the
// deadline.
func TestDeadlineStopsAStudy(t *testing.T) {
	f := smokeFlags(t, "discovery-38d", 0)
	f.scale, f.deadline = 0, 300*time.Millisecond
	start := time.Now()
	var r studyResult
	err := runChild(context.Background(), f, filepath.Join(f.work, "study"), "study",
		[]string{"-workload", "discovery-38d", "-seed", "3"}, &r)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("runChild = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stopping the study took %v", elapsed)
	}
}
