package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// spanRecorder turns core.Config.StepHook calls into spans. A span runs
// from the previous hook (or from Run entry) to the hook that names it,
// so the spans of one study tile its collect_s. Each span also carries
// the heap bytes allocated inside it.
type spanRecorder struct {
	last      time.Time
	lastAlloc uint64
	spans     []span
}

type span struct {
	kind  string // "search", "drain", "monitor", "join", "done" or "init"
	dur   time.Duration
	alloc uint64
}

// start marks Run entry. A nil recorder (untraced run) ignores it.
func (r *spanRecorder) start(t time.Time) {
	if r == nil {
		return
	}
	r.last, r.lastAlloc = t, readMetric("/gc/heap/allocs:bytes")
}

// hook is the core.Config.StepHook of a traced study.
func (r *spanRecorder) hook(_ int, step string) error {
	now, alloc := time.Now(), readMetric("/gc/heap/allocs:bytes")
	kind := step
	if strings.HasPrefix(step, "search-") {
		kind = "search"
	}
	r.spans = append(r.spans, span{kind: kind, dur: now.Sub(r.last), alloc: alloc - r.lastAlloc})
	r.last, r.lastAlloc = now, alloc
	return nil
}

// sum adds up the durations and allocations of the spans of one kind.
func (r *spanRecorder) sum(kind string) (time.Duration, uint64) {
	var d time.Duration
	var a uint64
	for _, s := range r.spans {
		if s.kind == kind {
			d += s.dur
			a += s.alloc
		}
	}
	return d, a
}

func (r *spanRecorder) durationsMS(kind string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.kind == kind {
			out = append(out, float64(s.dur)/float64(time.Millisecond))
		}
	}
	return out
}

// gap is how much of collect_s the spans leave uncovered. The last hook
// ("done") fires just before Run returns, so the gap should be only the
// return itself.
func (r *spanRecorder) gap(collect time.Duration) time.Duration {
	for _, s := range r.spans {
		collect -= s.dur
	}
	return collect
}

// tilingProblem reports when the spans do not add up to collect_s.
func (r *spanRecorder) tilingProblem(collect time.Duration) string {
	if gap := r.gap(collect); gap < 0 || gap > collect/100+2*time.Millisecond {
		return fmt.Sprintf("step spans sum to %v but collect_s is %v", collect-gap, collect)
	}
	return ""
}

// spanKinds lists the step kinds whose share of collect_s a traced run
// reports as span.<kind>_frac.
var spanKinds = []string{"init", "search", "drain", "monitor", "join", "done"}

// finish writes the span-derived per-layer metrics of one study into lay.
// collect is the study's collect_s; probes, tweets and messages are its
// work counts.
func (r *spanRecorder) finish(collect time.Duration, probes, tweets, messages int, checkpointed bool, lay *layerSample) {
	m := lay.Metrics
	for _, kind := range spanKinds {
		d, _ := r.sum(kind)
		m["span."+kind+"_frac"] = d.Seconds() / collect.Seconds()
	}
	_, searchAlloc := r.sum("search")
	_, drainAlloc := r.sum("drain")
	sweep, sweepAlloc := r.sum("monitor")
	sel, _ := r.sum("join")
	coll, collAlloc := r.sum("done")

	lay.Samples["collect.search_step_ms"] = r.durationsMS("search")
	lay.Samples["collect.drain_ms"] = r.durationsMS("drain")
	lay.Samples["monitor.sweep_ms"] = r.durationsMS("monitor")
	if checkpointed {
		lay.Samples["checkpoint.drain_ms"] = r.durationsMS("drain")
	}
	m["collect.alloc_kb_per_tweet"] = perUnit(float64(searchAlloc+drainAlloc)/1024, tweets)
	m["monitor.us_per_probe"] = perUnit(float64(sweep)/float64(time.Microsecond), probes)
	m["monitor.alloc_kb_per_probe"] = perUnit(float64(sweepAlloc)/1024, probes)
	m["join.select_s"] = sel.Seconds()
	m["join.collect_s"] = coll.Seconds()
	m["join.messages_per_s"] = 0
	if coll > 0 {
		m["join.messages_per_s"] = float64(messages) / coll.Seconds()
	}
	m["join.alloc_b_per_msg"] = perUnit(float64(collAlloc), messages)
}

// perUnit divides a total by a count, reading 0 when nothing was counted.
func perUnit(total float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}

// --- CPU profile bucketing ---

// frame is one function of a profiled stack.
type frame struct {
	fn, file string
}

// cpuBuckets lists every share a traced run reports. The first seven are
// the layers the benchmark tracks; "report" and "pipeline" cover the rest
// of msgscope and "other" the runtime's own scheduling, so the shares sum
// to one.
var cpuBuckets = []string{
	"cpu.sim_services", "cpu.simworld", "cpu.loopback", "cpu.client_decode",
	"cpu.store", "cpu.lda", "cpu.gc", "cpu.report", "cpu.pipeline", "cpu.other",
}

// msgscopeLayers maps msgscope packages to buckets. The twitter, platform
// and social packages hold both the simulated service and its client;
// bucketOf splits them by file and function name.
var msgscopeLayers = []struct{ prefix, bucket string }{
	{"msgscope/internal/simworld.", "cpu.simworld"},
	{"msgscope/internal/textgen.", "cpu.simworld"},
	{"msgscope/internal/dist.", "cpu.simworld"},
	{"msgscope/internal/faults.", "cpu.sim_services"},
	{"msgscope/internal/twitter.", "service-or-client"},
	{"msgscope/internal/platform/", "service-or-client"},
	{"msgscope/internal/social.", "service-or-client"},
	{"msgscope/internal/jsonx.", "cpu.client_decode"},
	{"msgscope/internal/httpx.", "cpu.client_decode"},
	{"msgscope/internal/retry.", "cpu.client_decode"},
	{"msgscope/internal/store.", "cpu.store"},
	{"msgscope/internal/checkpoint.", "cpu.store"},
	{"msgscope/internal/ids.", "cpu.store"},
	{"msgscope/internal/analysis/lda.", "cpu.lda"},
	{"msgscope/internal/analysis/textproc.", "cpu.lda"},
	{"msgscope/internal/report.", "cpu.report"},
	{"msgscope/internal/privacy.", "cpu.report"},
	{"msgscope/internal/analysis/", "cpu.report"},
	{"msgscope/internal/plot.", "cpu.report"},
	{"msgscope", "cpu.pipeline"}, // collect, monitor, join, core, the driver
}

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.(*gcWork)",
	"runtime.(*mheap).reclaim", "runtime.(*sweepLocked)",
}

// loopbackFrames mark the HTTP transport and kernel crossings: the
// loopback between the clients and the simulated services.
var loopbackFrames = []string{
	"net/http.", "net.", "net/textproto.", "bufio.", "internal/poll.",
	"syscall.", "runtime.netpoll", "internal/runtime/syscall.",
}

// bucketOf assigns a stack, ordered leaf first, to one CPU bucket. GC
// work wins wherever it appears. Otherwise the innermost msgscope frame
// names the layer, except that time spent in the transport below a
// client or service counts as loopback; the store keeps its own file
// I/O. A stack with no msgscope frame is loopback or runtime.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if hasAnyPrefix(f.fn, gcFrames) {
			return "cpu.gc"
		}
	}
	inTransport := false
	for _, f := range stack {
		if hasAnyPrefix(f.fn, loopbackFrames) {
			inTransport = true
			continue
		}
		bucket := layerOf(f)
		switch {
		case bucket == "":
			continue
		case inTransport && bucket != "cpu.store":
			return "cpu.loopback"
		default:
			return bucket
		}
	}
	if inTransport {
		return "cpu.loopback"
	}
	return "cpu.other"
}

// layerOf names the bucket of a msgscope frame, or "" for any other.
func layerOf(f frame) string {
	for _, l := range msgscopeLayers {
		if !strings.HasPrefix(f.fn, l.prefix) {
			continue
		}
		if l.bucket != "service-or-client" {
			return l.bucket
		}
		if isServiceSide(f) {
			return "cpu.sim_services"
		}
		return "cpu.client_decode"
	}
	return ""
}

// isServiceSide tells a simulated service's frame from its client's in
// the packages that hold both: service code lives in service.go, and the
// wire encoders the handlers call are named append* or encode*.
func isServiceSide(f frame) bool {
	if strings.HasSuffix(f.file, "/service.go") || strings.Contains(f.fn, ".(*Service)") {
		return true
	}
	name := f.fn[strings.LastIndex(f.fn, ".")+1:]
	return strings.HasPrefix(name, "append") || strings.HasPrefix(name, "encode")
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuShares buckets a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var total float64
	for i, st := range stacks {
		out[bucketOf(st)] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for b := range out {
			out[b] /= total
		}
	}
	return out, nil
}

// parseProfile decodes the stacks (leaf first) and weights of a gzipped
// pprof profile, reading the first sample value as the weight. It reads
// only the fields that needs: samples, locations, functions and strings.
func parseProfile(data []byte) ([][]frame, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locLines := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcs := map[uint64][2]int64{}    // function id -> name, filename string indexes
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					if first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcs[id] = [2]int64{name, file}
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	stacks := make([][]frame, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				stacks[i] = append(stacks[i], frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		weights[i] = float64(s.value)
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
