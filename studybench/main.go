// Command studybench is msgscope's study-level benchmark. It runs whole
// studies of one workload, times the calls into each layer's public
// functions from outside the program, checks every study's outputs, and
// prints one JSON result as its last line. README.md describes the
// workloads, the metrics and the checks.
//
//	studybench --workload durable-faulted --seed 1 --seconds 30 --trace 0
//
// Each study runs in a child process of its own, so peak RSS and CPU time
// are per study and a study that overruns its deadline can be stopped.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childDeadline stops a study (or check) child that runs this long; a
// study takes about ten seconds on a 2-core host.
const childDeadline = 60 * time.Second

// runBudget bounds one run's wall time, children included.
const runBudget = 170 * time.Second

// roleEnv selects a child role; the parent sets it when it re-executes
// itself for one study, the reference run or the golden check.
const roleEnv = "STUDYBENCH_ROLE"

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"collect_s", "s"},
	{"analysis_s", "s"},
	{"total_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"disk_mb", "MB"},
	{"records_per_s", "1/s"},
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runFlags struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	work     string
	golden   string
	// deadline is childDeadline; scale, when positive, replaces the
	// workload's study scale. Tests set both to keep smoke runs short.
	deadline time.Duration
	scale    float64
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("studybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	fs.StringVar(&f.workload, "workload", "", "workload to run (join-collect, durable-faulted, discovery-38d, join-collect-parallel)")
	fs.Uint64Var(&f.seed, "seed", 1, "run seed; the studies' seeds derive from it")
	fs.IntVar(&f.seconds, "seconds", 30, "nominal measuring time; fixes how many studies a run holds")
	fs.IntVar(&f.trace, "trace", 0, "1 runs each study traced and untraced and reports per-layer metrics")
	fs.StringVar(&f.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for study outputs")
	fs.StringVar(&f.golden, "golden", filepath.Join("testdata", "golden"), "directory of the golden renders")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f.deadline = childDeadline
	// A signal cancels the run, which stops the children before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, f, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "studybench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "studybench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// run performs one benchmark run: the golden check, the workload's
// studies, and the reference check on study 0's seed.
func run(ctx context.Context, f runFlags, stdout, stderr io.Writer) (result, error) {
	w, err := findWorkload(f.workload)
	if err != nil {
		return result{}, err
	}
	if f.trace != 0 && f.trace != 1 {
		return result{}, fmt.Errorf("--trace must be 0 or 1, not %d", f.trace)
	}
	if err := os.MkdirAll(f.work, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(f.work, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	if b, err := json.Marshal(map[string]any{"host": hostInfo(), "workload": w.name, "seed": f.seed}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}

	var problems []string
	problem := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		problems = append(problems, msg)
		fmt.Fprintf(stderr, "studybench: CHECK FAILED (%s seed %d): %s\n", w.name, f.seed, msg)
	}

	// Stop every child once the run has used its budget, so a run ends in
	// time even when several studies hit their deadlines.
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	var golden []string
	if err := runChild(ctx, f, filepath.Join(work, "golden"), "golden", []string{"-golden", f.golden}, &golden); err != nil {
		problem("golden check: %v", err)
	}
	for _, p := range golden {
		problem("golden: %s", p)
	}

	var untraced, traced []studyResult
	attempted, failed := 0, 0
	n := studies(f.seconds)
	if f.trace == 1 {
		n = 1 // per-layer metrics carry no bound; one traced pair will do
	}
	for i := 0; ctx.Err() == nil && i < n; i++ {
		seed := studySeed(f.seed, i)
		attempted++
		one := func(tr int) (studyResult, error) {
			var r studyResult
			dir := filepath.Join(work, fmt.Sprintf("study-%d-trace%d", i, tr))
			err := runChild(ctx, f, dir, "study", []string{
				"-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-trace", strconv.Itoa(tr),
				"-scale", strconv.FormatFloat(f.scale, 'g', -1, 64),
			}, &r)
			return r, err
		}
		u, err := one(0)
		var t studyResult
		if err == nil && f.trace == 1 {
			t, err = one(1)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "studybench: FAILED %s seed %d (study seed %d): %v\n", w.name, f.seed, seed, err)
			continue
		}
		for _, p := range append(u.Problems, t.Problems...) {
			problem("study seed %d: %s", seed, p)
		}
		if f.trace == 1 && t.Digest != u.Digest {
			problem("study seed %d: %s", seed, digestMismatch("traced versus untraced run", t, u))
		}
		e2e, _ := json.Marshal(u.E2E) // a map of floats always encodes
		fmt.Fprintf(stderr, "studybench: %s study seed %d digest %s %s\n", w.name, seed, u.Digest, e2e)
		untraced = append(untraced, u)
		if f.trace == 1 {
			traced = append(traced, t)
		}
	}
	if len(untraced) == 0 {
		return result{}, fmt.Errorf("all %d studies of %s seed %d failed", attempted, w.name, f.seed)
	}

	var ref referenceResult
	refArgs := []string{"-workload", w.name, "-seed", strconv.FormatUint(f.seed, 10)}
	if err := runChild(ctx, f, filepath.Join(work, "reference"), "reference", refArgs, &ref); err != nil {
		problem("reference check: %v", err)
	} else {
		for _, p := range ref.problems() {
			problem("reference check: %s", p)
		}
	}
	ledger, err := loadLedger(filepath.Join(f.work, "digests.json"))
	if err != nil {
		return result{}, err
	}
	code, err := codeIdentity()
	if err != nil {
		return result{}, err
	}
	for _, u := range untraced {
		if p := ledger.check(fmt.Sprintf("%s/%s/%d", code, w.name, u.Seed), u.Digest); p != "" {
			problem("%s", p)
		}
	}
	if err := ledger.save(); err != nil {
		return result{}, err
	}

	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}
	if f.trace == 1 {
		res.Metrics = layerMetrics(untraced, traced)
		return res, nil
	}
	res.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		var xs []float64
		for _, u := range untraced {
			xs = append(xs, u.E2E[m.name])
		}
		res.Metrics[m.name] = metric{Value: median(xs), Unit: m.unit}
	}
	return res, nil
}

// runChild re-executes this binary in a child role with a deadline and
// decodes the JSON the child prints as its last line into out. dir is
// the child's scratch directory, removed afterwards.
func runChild(ctx context.Context, f runFlags, dir, role string, args []string, out any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, f.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-dir", dir}, args...)...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role, "TMPDIR="+dir)
	// The child dies with the parent even if the parent is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	err = cmd.Run()
	if ctx.Err() != nil {
		return fmt.Errorf("%s child stopped (deadlines: %v per child, %v per run): %w", role, f.deadline, runBudget, ctx.Err())
	}
	if err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), out)
}

// childMain runs one child role and prints its JSON result.
func childMain(role string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "scratch directory")
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 0, "study seed")
	trace := fs.Int("trace", 0, "1 traces the study")
	golden := fs.String("golden", "", "golden render directory")
	scale := fs.Float64("scale", 0, "study scale override")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	var out any
	var err error
	switch role {
	case "golden":
		out, err = checkGolden(ctx, *golden, *dir)
	case "study", "reference":
		var w workload
		if w, err = findWorkload(*name); err != nil {
			break
		}
		if *scale > 0 {
			w.scale = *scale
		}
		if role == "study" {
			out, err = runStudy(ctx, w, *seed, *dir, *trace == 1)
		} else {
			out, err = runReference(ctx, w, *seed, *dir)
		}
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(stderr, "studybench %s: %v\n", role, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "studybench %s: %v\n", role, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// layerMetrics pools the traced studies into the per-layer metrics:
// span percentiles over every study's spans, everything else as the
// median over studies, and the tracing overhead from each study's
// untraced twin.
func layerMetrics(untraced, traced []studyResult) map[string]metric {
	out := map[string]metric{}
	pooled := map[string][]float64{}
	scalars := map[string][]float64{}
	for _, t := range traced {
		for k, v := range t.Layer.Samples {
			pooled[k] = append(pooled[k], v...)
		}
		for k, v := range t.Layer.Metrics {
			scalars[k] = append(scalars[k], v)
		}
	}
	for k, xs := range scalars {
		out[k] = metric{Value: median(xs), Unit: unitOf(k)}
	}
	search := pooled["collect.search_step_ms"]
	tail := tailPercentile(search)
	out["collect.search_step_ms.p50"] = metric{percentile(search, 500), "ms"}
	out["collect.search_step_ms.tail"] = metric{tail.value, "ms"}
	out["collect.search_step_ms.tail_pct"] = metric{tail.pct, "%"}
	out["collect.search_step_ms.samples"] = metric{float64(tail.n), "count"}
	out["collect.drain_ms.p50"] = metric{percentile(pooled["collect.drain_ms"], 500), "ms"}
	out["monitor.sweep_ms.p50"] = metric{percentile(pooled["monitor.sweep_ms"], 500), "ms"}
	out["monitor.sweep_ms.max"] = metric{percentile(pooled["monitor.sweep_ms"], 1000), "ms"}
	out["checkpoint.drain_ms.p50"] = metric{percentile(pooled["checkpoint.drain_ms"], 500), "ms"}

	var over, base []float64
	for i, t := range traced {
		over = append(over, t.E2E["total_s"]-untraced[i].E2E["total_s"])
		base = append(base, untraced[i].E2E["total_s"])
	}
	out["trace.overhead_s"] = metric{median(over), "s"}
	out["trace.overhead_frac"] = metric{median(over) / median(base), "ratio"}
	return out
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasPrefix(name, "cpu."), strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kb_per_tweet"), strings.HasSuffix(name, "_kb_per_probe"):
		return "KB"
	case strings.HasSuffix(name, "_b_per_msg"):
		return "B"
	case strings.HasSuffix(name, "us_per_probe"):
		return "us"
	}
	return "count"
}

// hostInfo records where a result was measured.
func hostInfo() map[string]any {
	name, _ := os.Hostname() // informational only
	model := "unknown"
	if fh, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		fh.Close()
	}
	return map[string]any{
		"hostname":   name,
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}
