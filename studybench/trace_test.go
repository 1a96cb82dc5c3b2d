package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The stacks below are leaf first, as pprof stores them, and use the
// function and file names the Go toolchain records for msgscope.
func TestBucketOf(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	handler := f("msgscope/internal/twitter.(*Service).handleSearch", "/src/internal/twitter/service.go")
	serve := f("net/http.(*conn).serve", "/go/src/net/http/server.go")
	for _, tc := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"search handler", []frame{
			f("strings.Index", "/go/src/strings/strings.go"), handler, serve,
		}, "cpu.sim_services"},
		{"service-side wire encoder", []frame{
			f("msgscope/internal/twitter.appendTweet", "/src/internal/twitter/wire_fast.go"), handler, serve,
		}, "cpu.sim_services"},
		{"world generation under a handler", []frame{
			f("msgscope/internal/simworld.(*World).Messages", "/src/internal/simworld/messages.go"),
			f("msgscope/internal/platform/discord.(*Service).handleMessages", "/src/internal/platform/discord/service.go"),
			serve,
		}, "cpu.simworld"},
		{"response write under a handler", []frame{
			f("syscall.Syscall", "/go/src/syscall/syscall_linux.go"),
			f("net.(*conn).Write", "/go/src/net/net.go"),
			f("net/http.(*response).Write", "/go/src/net/http/server.go"),
			handler, serve,
		}, "cpu.loopback"},
		{"client transport goroutine", []frame{
			f("internal/poll.(*FD).Read", "/go/src/internal/poll/fd_unix.go"),
			f("net/http.(*persistConn).readLoop", "/go/src/net/http/transport.go"),
		}, "cpu.loopback"},
		{"client-side parse", []frame{
			f("msgscope/internal/jsonx.(*Dec).String", "/src/internal/jsonx/jsonx.go"),
			f("msgscope/internal/twitter.parseSearchStatuses", "/src/internal/twitter/wire_fast.go"),
			f("msgscope/internal/twitter.(*Client).searchPage", "/src/internal/twitter/client.go"),
		}, "cpu.client_decode"},
		{"platform client", []frame{
			f("msgscope/internal/platform/discord.parseMessagePage", "/src/internal/platform/discord/client.go"),
		}, "cpu.client_decode"},
		{"checkpoint fsync", []frame{
			f("syscall.Syscall", "/go/src/syscall/syscall_linux.go"),
			f("os.(*File).Sync", "/go/src/os/file_posix.go"),
			f("msgscope/internal/store.(*CheckpointWriter).Checkpoint", "/src/internal/store/ckpt.go"),
		}, "cpu.store"},
		{"gc assist inside ingest", []frame{
			f("runtime.scanobject", "/go/src/runtime/mgcmark.go"),
			f("runtime.gcAssistAlloc", "/go/src/runtime/mgcmark.go"),
			f("runtime.mallocgc", "/go/src/runtime/malloc.go"),
			f("msgscope/internal/store.(*Store).AddTweetBatch", "/src/internal/store/store.go"),
		}, "cpu.gc"},
		{"allocation inside ingest", []frame{
			f("runtime.mallocgc", "/go/src/runtime/malloc.go"),
			f("msgscope/internal/store.(*Store).AddMessageBatch", "/src/internal/store/store.go"),
		}, "cpu.store"},
		{"background mark worker", []frame{
			f("runtime.gcDrain", "/go/src/runtime/mgcmark.go"),
			f("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"),
		}, "cpu.gc"},
		{"lda sampler", []frame{
			f("msgscope/internal/analysis/lda.(*aliasSampler).sweep", "/src/internal/analysis/lda/alias.go"),
			f("msgscope/internal/report.Table3", "/src/internal/report/tables.go"),
		}, "cpu.lda"},
		{"aggregation", []frame{
			f("msgscope/internal/report.(*Aggregates).walkTweets", "/src/internal/report/aggregate.go"),
		}, "cpu.report"},
		{"monitor loop", []frame{
			f("msgscope/internal/monitor.(*Monitor).DailySweep.func1", "/src/internal/monitor/monitor.go"),
		}, "cpu.pipeline"},
		{"scheduler", []frame{
			f("runtime.findRunnable", "/go/src/runtime/proc.go"),
			f("runtime.schedule", "/go/src/runtime/proc.go"),
		}, "cpu.other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("%s: bucketOf = %s, want %s", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		n ^= n << 1
	}
	return n
}

// TestParseProfile profiles a busy loop with runtime/pprof and checks that
// the stdlib-only decoder recovers its frames and that the bucket shares
// of the same profile sum to one.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples decoded from a 400ms busy loop")
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Errorf("sample %d has weight %v", i, weights[i])
		}
		for _, fr := range st {
			if strings.HasSuffix(fr.fn, ".spin") && strings.HasSuffix(fr.file, "trace_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no decoded stack contains the profiled spin function")
	}

	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("share %s missing", b)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuBuckets) {
		t.Errorf("got %d shares, want %d", len(shares), len(cpuBuckets))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted bytes that are not gzip")
	}
}

// TestSpansTileCollect drives the recorder the way core.Study.Run calls
// its StepHook and checks that the spans tile the run and that a run
// whose last stretch no hook covers is reported.
func TestSpansTileCollect(t *testing.T) {
	r := &spanRecorder{}
	start := time.Now()
	r.start(start)
	steps := []string{"search-01", "search-02", "drain", "monitor", "join", "search-01", "drain", "monitor", "done"}
	for _, step := range steps {
		time.Sleep(time.Millisecond)
		if err := r.hook(0, step); err != nil {
			t.Fatal(err)
		}
	}
	collect := time.Since(start)
	if p := r.tilingProblem(collect); p != "" {
		t.Errorf("spans of a complete run: %s", p)
	}
	if got := len(r.durationsMS("search")); got != 3 {
		t.Errorf("%d search spans, want 3", got)
	}
	if got := r.gap(collect); got < 0 || got > time.Millisecond {
		t.Errorf("gap %v between spans and collect_s", got)
	}
	if p := r.tilingProblem(collect + 50*time.Millisecond); p == "" {
		t.Error("an uncovered 50ms tail was not reported")
	}

	lay := &layerSample{Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	r.finish(collect, 100, 10, 1000, true, lay)
	share := 0.0
	for _, kind := range spanKinds {
		share += lay.Metrics["span."+kind+"_frac"]
	}
	if share < 0.9 || share > 1 {
		t.Errorf("span shares sum to %v, want the spans' share of collect_s", share)
	}
	if got := len(lay.Samples["checkpoint.drain_ms"]); got != 2 {
		t.Errorf("%d checkpointed drain spans, want 2", got)
	}
	coll, _ := r.sum("done")
	if want := 1000 / coll.Seconds(); lay.Metrics["join.messages_per_s"] != want {
		t.Errorf("join.messages_per_s = %v, want %v", lay.Metrics["join.messages_per_s"], want)
	}
}
