package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"msgscope"
)

// checkStudy applies the output checks that need no second run: no
// discovered group is lost, the outcome classes add up to the groups the
// dataset export holds, and Table 2's totals, both as computed and as
// rendered, equal the store's counts.
func checkStudy(out studyOutput) []string {
	var problems []string
	o := out.outcomes
	if o.Lost != 0 {
		problems = append(problems, fmt.Sprintf("%d discovered groups lost (neither observed nor deferred)", o.Lost))
	}
	if sum := o.Alive + o.Revoked + o.Deferred + o.Lost; sum != out.exportedGroups {
		problems = append(problems, fmt.Sprintf("group outcomes add up to %d, but the export holds %d groups", sum, out.exportedGroups))
	}
	t := out.table2Total
	computed := [4]int{t.Tweets, t.GroupURLs, t.JoinedGroups, t.Messages}
	stored := [4]int{out.counts.Tweets, out.counts.GroupURLs, out.counts.JoinedGroups, out.counts.Messages}
	if computed != stored {
		problems = append(problems, fmt.Sprintf("Table 2 totals (tweets, groups, joined, messages) %v differ from the store's %v", computed, stored))
	}
	rendered, err := table2RenderedTotal(out.renders["table2"])
	if err != nil {
		problems = append(problems, err.Error())
	} else if rendered != stored {
		problems = append(problems, fmt.Sprintf("rendered Table 2 totals %v differ from the store's %v", rendered, stored))
	}
	return problems
}

// table2RenderedTotal reads tweets, group URLs, joined groups and messages
// from the "Total" row of a rendered Table 2.
func table2RenderedTotal(render string) ([4]int, error) {
	for _, line := range strings.Split(render, "\n") {
		if !strings.HasPrefix(line, "Total ") {
			continue
		}
		f := strings.Fields(strings.ReplaceAll(line, "|", " "))
		// Total, tweets, tweet users, group URLs, joined, messages, message users
		if len(f) != 7 {
			break
		}
		var out [4]int
		for i, col := range []int{1, 3, 4, 5} {
			v, err := strconv.Atoi(f[col])
			if err != nil {
				return out, fmt.Errorf("rendered Table 2 total %q: %w", line, err)
			}
			out[i] = v
		}
		return out, nil
	}
	return [4]int{}, errors.New("rendered Table 2 has no well-formed Total row")
}

// countLines counts the newline-terminated lines of a file.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	buf := make([]byte, 64<<10)
	for {
		k, err := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// compareRenders lists the experiments whose renders differ.
func compareRenders(what string, got, want renders) []string {
	var problems []string
	for _, id := range sortedKeys(want) {
		if g, ok := got[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s has no %s", what, id))
		} else if g != want[id] {
			problems = append(problems, fmt.Sprintf("%s renders %s differently", what, id))
		}
	}
	for _, id := range sortedKeys(got) {
		if _, ok := want[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s renders unexpected experiment %s", what, id))
		}
	}
	return problems
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// digest hashes a study's outputs: each exported dataset file and each
// rendered experiment is a part with its own SHA-256, and the digest is
// the SHA-256 over the sorted part hashes. Part hashes let a mismatch
// name what differs.
func digest(datasetDir string, r renders) (string, map[string]string, error) {
	parts := map[string]string{}
	entries, err := os.ReadDir(datasetDir)
	if err != nil {
		return "", nil, fmt.Errorf("digest: %w", err)
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(datasetDir, e.Name()))
		if err != nil {
			return "", nil, fmt.Errorf("digest: %w", err)
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", nil, fmt.Errorf("digest: %w", err)
		}
		parts["file/"+e.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	for id, text := range r {
		sum := sha256.Sum256([]byte(text))
		parts["render/"+id] = hex.EncodeToString(sum[:])
	}
	h := sha256.New()
	for _, k := range sortedKeys(parts) {
		fmt.Fprintf(h, "%s %s\n", k, parts[k])
	}
	return hex.EncodeToString(h.Sum(nil)), parts, nil
}

// digestMismatch describes two differing digests by the parts that differ.
func digestMismatch(what string, a, b studyResult) string {
	var differ []string
	for _, k := range sortedKeys(a.Parts) {
		if a.Parts[k] != b.Parts[k] {
			differ = append(differ, k)
		}
	}
	for _, k := range sortedKeys(b.Parts) {
		if _, ok := a.Parts[k]; !ok {
			differ = append(differ, k)
		}
	}
	return fmt.Sprintf("%s: digest %s differs from %s in %s", what, a.Digest, b.Digest, strings.Join(differ, ", "))
}

// referenceScale and referenceDays size the reference check. Scale and
// days are passed through unchanged by both the driver and msgscope.Run,
// so checking the workload's other options on a small, short study costs
// a few seconds instead of two full studies in every run.
const (
	referenceScale = 0.002
	referenceDays  = 10
)

// referenceResult compares the driver with the product on one study.
type referenceResult struct {
	Driver  studyResult `json:"driver"`
	Product studyResult `json:"product"`
}

// problems lists where the driver and msgscope.Run disagree.
func (r referenceResult) problems() []string {
	var out []string
	if r.Driver.Digest != r.Product.Digest {
		out = append(out, digestMismatch("driver versus msgscope.Run", r.Driver, r.Product))
	}
	if r.Driver.Outcomes != r.Product.Outcomes {
		out = append(out, fmt.Sprintf("driver group outcomes %+v differ from msgscope.Run's %+v", r.Driver.Outcomes, r.Product.Outcomes))
	}
	return append(out, r.Driver.Problems...)
}

// runReference runs one study of w at seed, referenceScale and at most
// referenceDays twice:
// through the driver, and through the product's own entry point,
// msgscope.Run, digesting its dataset export and renders the same way.
func runReference(ctx context.Context, w workload, seed uint64, dir string) (referenceResult, error) {
	var ref referenceResult
	driverDir, productDir := filepath.Join(dir, "driver"), filepath.Join(dir, "product")
	w.scale = referenceScale
	options := w.options
	w.options = func(seed uint64, scale float64, checkpointDir string) msgscope.Options {
		o := options(seed, scale, checkpointDir)
		o.Days = min(o.Days, referenceDays)
		return o
	}
	drv, err := runStudy(ctx, w, seed, driverDir, false)
	if err != nil {
		return ref, err
	}
	ref.Driver = drv
	res, err := msgscope.Run(ctx, w.options(seed, w.scale, filepath.Join(productDir, "checkpoint")))
	if err != nil {
		return ref, fmt.Errorf("msgscope.Run: %w", err)
	}
	datasetDir := filepath.Join(productDir, "dataset")
	if err := res.SaveDataset(datasetDir); err != nil {
		return ref, err
	}
	r := renders{}
	for _, id := range msgscope.Experiments() {
		r[id] = res.Render(id)
	}
	ref.Product.Outcomes = res.GroupOutcomes()
	ref.Product.Digest, ref.Product.Parts, err = digest(datasetDir, r)
	return ref, err
}

// goldenOptions is the configuration testdata/golden was rendered from.
var goldenOptions = msgscope.Options{Seed: 42, Scale: 0.01, Days: 10}

// checkGolden runs the golden configuration through the driver's own
// path and compares its renders with every testdata/golden/<id>.txt.
func checkGolden(ctx context.Context, goldenDir, dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden files under %s", goldenDir)
	}
	res, got, err := measureStudy(ctx, goldenOptions, dir, false)
	if err != nil {
		return nil, err
	}
	want := renders{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		want[strings.TrimSuffix(filepath.Base(f), ".txt")] = string(b)
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			delete(got, id)
		}
	}
	return append(res.Problems, compareRenders("golden run", got, want)...), nil
}

// digestLedger records each study's digest across the runs made in one
// checkout, so a later run of the same code, workload and study seed
// must reproduce it. Keys start with codeIdentity, so a build of other
// sources, which may rightly change the outputs, is compared only with
// itself.
type digestLedger struct {
	path    string
	Digests map[string]string `json:"digests"`
}

// codeIdentity is the SHA-256 of the running binary, which embeds the
// msgscope sources it was built from.
func codeIdentity() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func loadLedger(path string) (*digestLedger, error) {
	l := &digestLedger{path: path, Digests: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("digest ledger %s: %w", path, err)
	}
	return l, nil
}

// check records digest for key, or reports a mismatch with the digest an
// earlier run recorded.
func (l *digestLedger) check(key, digest string) string {
	if prev, ok := l.Digests[key]; ok && prev != digest {
		return fmt.Sprintf("%s: digest %s differs from %s recorded by an earlier run", key, digest, prev)
	}
	l.Digests[key] = digest
	return ""
}

func (l *digestLedger) save() error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
