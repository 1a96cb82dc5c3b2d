package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"msgscope"
	"msgscope/internal/core"
	"msgscope/internal/report"
	"msgscope/internal/simworld"
	"msgscope/internal/store"
	"msgscope/internal/urlpat"
)

// studyResult is what one study child reports to the parent: its digest,
// the output checks it failed, its end-to-end figures, and, when traced,
// its per-layer figures.
type studyResult struct {
	Seed     uint64                 `json:"seed"`
	Digest   string                 `json:"digest"`
	Parts    map[string]string      `json:"parts"` // part hashes behind Digest
	Outcomes msgscope.GroupOutcomes `json:"outcomes"`
	Problems []string               `json:"problems,omitempty"`
	// E2E holds setup_s, collect_s, analysis_s, total_s, cpu_s,
	// peak_rss_mb, disk_mb and records_per_s.
	E2E   map[string]float64 `json:"e2e"`
	Layer *layerSample       `json:"layer,omitempty"`
}

// layerSample is one traced study's per-layer figures: scalar metrics
// under their BENCHMARK.json names, plus the raw span durations the
// parent pools across studies before taking percentiles.
type layerSample struct {
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples"`
}

// experiment is one entry of msgscope's RenderAll set, computed through
// the report package directly so the driver can time each group.
type experiment struct {
	id    string
	group string // "figures", "tables" or "lda"
	run   func(ds report.Dataset, cfg core.Config) string
}

var experimentSet = []experiment{
	{"fig1", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig1(ds).Render() }},
	{"fig2", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig2(ds).Render() }},
	{"fig3", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig3(ds).Render() }},
	{"fig4", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig4(ds).Render() }},
	{"fig5", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig5(ds).Render() }},
	{"fig6", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig6(ds).Render() }},
	{"fig7", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig7(ds).Render() }},
	{"fig8", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig8(ds).Render() }},
	{"fig9", "figures", func(ds report.Dataset, _ core.Config) string { return report.Fig9(ds).Render() }},
	{"table1", "tables", func(report.Dataset, core.Config) string { return report.Table1() }},
	{"table2", "tables", func(ds report.Dataset, _ core.Config) string { return report.Table2(ds).Render() }},
	{"table4", "tables", func(ds report.Dataset, _ core.Config) string { return report.Table4(ds).Render() }},
	{"table5", "tables", func(ds report.Dataset, _ core.Config) string { return report.Table5(ds).Render() }},
	{"creators", "tables", func(ds report.Dataset, _ core.Config) string { return report.Creators(ds).Render() }},
	{"countries", "tables", func(ds report.Dataset, _ core.Config) string { return report.Countries(ds).Render() }},
	{"toxicity", "tables", func(ds report.Dataset, _ core.Config) string { return report.Toxicity(ds).Render() }},
	{"crosssource", "tables", func(ds report.Dataset, _ core.Config) string { return report.CrossSource(ds).Render() }},
	// Table 3 with the parameters msgscope.Result.Render uses.
	{"table3", "lda", func(ds report.Dataset, cfg core.Config) string {
		return report.Table3(ds, report.Table3Config{
			Seed: cfg.Seed, Iterations: 120, MaxTweets: 4000, Sampler: cfg.LDASampler,
		}).Render()
	}},
}

// checkExperimentSet fails when msgscope renders an experiment the driver
// does not compute, or the reverse, so analysis_s keeps covering exactly
// the product's RenderAll set.
func checkExperimentSet() error {
	var ids []string
	for _, e := range experimentSet {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	if want := msgscope.Experiments(); !slices.Equal(ids, want) {
		return fmt.Errorf("driver computes experiments %v, msgscope renders %v", ids, want)
	}
	return nil
}

// renders maps experiment IDs to their rendered text.
type renders map[string]string

// studyOutput is what a finished study leaves for the output checks.
type studyOutput struct {
	outcomes    msgscope.GroupOutcomes
	table2Total report.Table2Row
	counts      store.Counts // Tweets, GroupURLs, JoinedGroups, Messages
	renders     renders
	datasetDir  string
	// exportedGroups counts the lines of the exported groups.jsonl: a
	// group count that does not come from the store's group list.
	exportedGroups int
}

// runStudy runs one study of w at seed inside dir and measures it. With
// traced set it also records step spans, allocation deltas and a CPU
// profile; untraced it installs no hook at all. On a workload with a
// restore step it then reopens the finished checkpoint.
func runStudy(ctx context.Context, w workload, seed uint64, dir string, traced bool) (studyResult, error) {
	ckptDir := filepath.Join(dir, "checkpoint")
	res, want, err := measureStudy(ctx, w.options(seed, w.scale, ckptDir), dir, traced)
	if err != nil {
		return res, err
	}
	if w.restore {
		restore, problems, err := restoreAndCompare(ctx, ckptDir, want)
		if err != nil {
			return res, err
		}
		res.Problems = append(res.Problems, problems...)
		if traced {
			res.Layer.Metrics["checkpoint.restore_s"] = restore.Seconds()
		}
	}
	res.E2E["setup_s"], err = repeatSetup(w, seed, dir, res.E2E["setup_s"])
	return res, err
}

// setupRepeats is how many more times a study child sets up its study
// after measuring it. One set-up takes a tenth of a second or so, short
// enough for the host's noise to swamp it, so setup_s is the median of
// all the child's set-ups.
const setupRepeats = 4

// repeatSetup times core.NewStudy setupRepeats more times on the options
// of w at seed, each from a collected heap and with a checkpoint directory
// of its own under dir, and returns the median of those times and first.
func repeatSetup(w workload, seed uint64, dir string, first float64) (float64, error) {
	xs := []float64{first}
	for k := range setupRepeats {
		scratch := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		cfg, err := coreConfig(w.options(seed, w.scale, filepath.Join(scratch, "checkpoint")))
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t := time.Now()
		s, err := core.NewStudy(cfg)
		if err != nil {
			return 0, fmt.Errorf("core.NewStudy: %w", err)
		}
		xs = append(xs, time.Since(t).Seconds())
		s.Close()
		if err := os.RemoveAll(scratch); err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// measureStudy runs the study opts describes and returns its figures and
// its renders. The study is closed when it returns.
func measureStudy(ctx context.Context, opts msgscope.Options, dir string, traced bool) (studyResult, renders, error) {
	res := studyResult{Seed: opts.Seed, E2E: map[string]float64{}}
	cfg, err := coreConfig(opts)
	if err != nil {
		return res, nil, err
	}
	if err := checkExperimentSet(); err != nil {
		return res, nil, err
	}

	var lay *layerSample
	var spans *spanRecorder
	var cpuProfile bytes.Buffer
	if traced {
		lay = &layerSample{Metrics: map[string]float64{}, Samples: map[string][]float64{}}
		// World generation happens inside core.NewStudy; time the same
		// generation once on its own to report the simworld layer.
		wcfg := simworld.DefaultConfig(cfg.Seed, cfg.Scale)
		wcfg.Days, wcfg.GenerateMessageText = opts.Days, opts.GenerateMessageText
		t := time.Now()
		simworld.New(wcfg)
		lay.Metrics["simworld.new_s"] = time.Since(t).Seconds()
		runtime.GC()
		spans = &spanRecorder{}
		cfg.StepHook = spans.hook
		if err := pprof.StartCPUProfile(&cpuProfile); err != nil {
			return res, nil, err
		}
		defer pprof.StopCPUProfile() // no-op once stopped below
	}

	cpu0 := cpuSeconds()
	t0 := time.Now()
	s, err := core.NewStudy(cfg)
	if err != nil {
		return res, nil, fmt.Errorf("core.NewStudy: %w", err)
	}
	defer s.Close()
	res.E2E["setup_s"] = time.Since(t0).Seconds()

	tRun := time.Now()
	spans.start(tRun)
	if err := s.Run(ctx); err != nil {
		return res, nil, fmt.Errorf("core.Study.Run: %w", err)
	}
	collect := time.Since(tRun)
	res.E2E["collect_s"] = collect.Seconds()
	if traced {
		lay.Metrics["store.heap_live_mb"] = float64(readMetric("/gc/heap/live:bytes")) / (1 << 20)
	}

	tAnalysis := time.Now()
	ds := s.Dataset()
	snapshot := time.Since(tAnalysis)
	out := studyOutput{}
	var stage map[string]time.Duration
	out.renders, stage = analyze(ds, s.Cfg)
	analysis := time.Since(tAnalysis)

	out.datasetDir = filepath.Join(dir, "dataset")
	tSave := time.Now()
	if err := s.Store.Save(out.datasetDir); err != nil {
		return res, nil, fmt.Errorf("store.Save: %w", err)
	}
	save := time.Since(tSave)
	if out.exportedGroups, err = countLines(filepath.Join(out.datasetDir, "groups.jsonl")); err != nil {
		return res, nil, fmt.Errorf("counting exported groups: %w", err)
	}
	res.E2E["total_s"] = time.Since(t0).Seconds()
	res.E2E["cpu_s"] = cpuSeconds() - cpu0
	peak, err := peakRSSMB()
	if err != nil {
		return res, nil, err
	}
	res.E2E["peak_rss_mb"] = peak
	if traced {
		pprof.StopCPUProfile()
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return res, nil, err
	}
	res.E2E["disk_mb"] = float64(disk) / (1 << 20)

	// Time the cold analysis once more and report the mean of the two
	// passes: one pass is short enough for host noise to swamp it. The
	// second pass must render exactly what the first rendered.
	start := s.World.Cfg.Start
	t := time.Now()
	cold := report.Dataset{Store: s.Store, Start: start, Days: s.Cfg.Days,
		Snap: s.Store.Snapshot(start, s.Cfg.Days), Agg: &report.AggCache{}}
	again, _ := analyze(cold, s.Cfg)
	res.E2E["analysis_s"] = (analysis + time.Since(t)).Seconds() / 2
	res.Problems = append(res.Problems, compareRenders("repeated analysis", again, out.renders)...)

	cs, ms, js := s.CollectorStats(), s.MonitorStats(), s.JoinStats()
	groups := s.Store.Groups()
	observations := 0
	for i, n := 0, groups.Len(); i < n; i++ {
		observations += groups.Obs(i).Len()
	}
	rows := s.Store.Tweets().Len() + s.Store.Control().Len() + observations + s.Store.Messages().Len()
	res.E2E["records_per_s"] = recordsPerSecond(rows, collect.Seconds())

	out.outcomes = groupOutcomes(groups)
	res.Outcomes = out.outcomes
	out.table2Total = report.Table2(ds).Total
	out.counts = store.Counts{
		Tweets:       s.Store.Tweets().Len(),
		GroupURLs:    groups.Len(),
		JoinedGroups: countJoined(groups),
		Messages:     s.Store.Messages().Len(),
	}
	res.Problems = append(res.Problems, checkStudy(out)...)
	if res.Digest, res.Parts, err = digest(out.datasetDir, out.renders); err != nil {
		return res, nil, err
	}

	if traced {
		m := lay.Metrics
		breakerOpens := int64(0)
		for _, b := range s.BreakerStats() {
			breakerOpens += b.Opens
		}
		searches := opts.Days * 24 / max(opts.SearchEveryHours, 1) * len(urlpat.TrackTerms())
		fails := deferrals{
			monitor: ms.Deferred, join: js.Deferred, search: cs.SearchDeferred,
			probes: ms.Probes, joins: js.Attempted, collections: js.Joined, searches: searches,
		}
		stats := s.Store.SpillStats()
		m["store.snapshot_s"] = snapshot.Seconds()
		m["store.save_s"] = save.Seconds()
		m["store.sealed_mb"] = float64(stats.SegBytes) / (1 << 20)
		m["store.segments"] = float64(stats.Segments)
		m["report.aggregate_s"] = stage["aggregate"].Seconds()
		m["report.figures_s"] = stage["figures"].Seconds()
		m["report.tables_s"] = stage["tables"].Seconds()
		m["report.lda_s"] = stage["lda"].Seconds()
		m["collect.tweets"] = float64(out.counts.Tweets)
		m["collect.search_deferred"] = float64(cs.SearchDeferred)
		m["monitor.probes"] = float64(ms.Probes)
		m["monitor.deferred"] = float64(ms.Deferred)
		m["join.messages"] = float64(out.counts.Messages)
		m["join.flood_waits"] = float64(js.FloodWaits)
		m["join.deferred"] = float64(js.Deferred)
		m["retry.breaker_opens"] = float64(breakerOpens)
		m["retry.deferred_frac"] = fails.fraction()
		logB, segB, err := checkpointBytes(opts.CheckpointDir)
		if err != nil {
			return res, nil, err
		}
		m["checkpoint.restore_s"] = 0
		m["checkpoint.log_mb"] = float64(logB) / (1 << 20)
		m["checkpoint.segment_mb"] = float64(segB) / (1 << 20)
		spans.finish(collect, ms.Probes, out.counts.Tweets, out.counts.Messages, opts.CheckpointDir != "", lay)
		m["trace.span_gap_ms"] = float64(spans.gap(collect)) / float64(time.Millisecond)
		if problem := spans.tilingProblem(collect); problem != "" {
			res.Problems = append(res.Problems, problem)
		}
		shares, err := cpuShares(cpuProfile.Bytes())
		if err != nil {
			return res, nil, err
		}
		for k, v := range shares {
			m[k] = v
		}
		res.Layer = lay
	}

	return res, out.renders, nil
}

// analyze computes every experiment cold from ds, timing the shared
// aggregation pass and each experiment group.
func analyze(ds report.Dataset, cfg core.Config) (renders, map[string]time.Duration) {
	out := renders{}
	stage := map[string]time.Duration{}
	// The first figure or table triggers the shared aggregation pass;
	// time it as its own stage so the others cover only their builders.
	t := time.Now()
	report.Table2(ds)
	stage["aggregate"] = time.Since(t)
	for _, e := range experimentSet {
		t := time.Now()
		out[e.id] = e.run(ds, cfg)
		stage[e.group] += time.Since(t)
	}
	return out, stage
}

// restoreAndCompare times msgscope.Resume on a finished checkpoint until
// its Result can render, then checks that every experiment renders
// byte-identically to the run that wrote the checkpoint.
func restoreAndCompare(ctx context.Context, ckptDir string, want renders) (time.Duration, []string, error) {
	t := time.Now()
	res, err := msgscope.Resume(ctx, ckptDir)
	if err != nil {
		return 0, nil, fmt.Errorf("msgscope.Resume: %w", err)
	}
	restore := time.Since(t)
	got := renders{}
	for _, id := range msgscope.Experiments() {
		got[id] = res.Render(id)
	}
	problems := compareRenders("restored result", got, want)
	if o := res.GroupOutcomes(); o.Lost != 0 {
		problems = append(problems, fmt.Sprintf("restored result lost %d groups", o.Lost))
	}
	return restore, problems, nil
}

// groupOutcomes classifies every group by how the run left it, with the
// rules of msgscope.Result.GroupOutcomes; the reference check compares
// the two.
func groupOutcomes(list store.GroupList) msgscope.GroupOutcomes {
	var out msgscope.GroupOutcomes
	for i, n := 0, list.Len(); i < n; i++ {
		out.Discovered++
		obs := list.Obs(i)
		switch {
		case list.At(i).Deferred:
			out.Deferred++
		case obs.Len() > 0:
			if last, _ := obs.Last(); last.Alive {
				out.Alive++
			} else {
				out.Revoked++
			}
		default:
			out.Lost++
		}
	}
	return out
}

func countJoined(list store.GroupList) int {
	n := 0
	for i := 0; i < list.Len(); i++ {
		if list.At(i).Joined {
			n++
		}
	}
	return n
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM). Each study
// runs in its own process, so this is the peak of one study.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// checkpointBytes splits a checkpoint directory into record logs plus
// manifest, and sealed segments. A run without a checkpoint has neither.
func checkpointBytes(dir string) (logs, segments int64, err error) {
	if dir == "" {
		return 0, 0, nil
	}
	all, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	segDir := filepath.Join(dir, "segments")
	if _, err := os.Stat(segDir); err == nil {
		if segments, err = dirBytes(segDir); err != nil {
			return 0, 0, err
		}
	}
	return all - segments, segments, nil
}

// readMetric reads one uint64 runtime metric without stopping the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
