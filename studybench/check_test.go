package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msgscope"
	"msgscope/internal/report"
	"msgscope/internal/store"
)

// consistentOutput is a study output whose parts agree: 10 groups, 3
// joined, 100 tweets, 500 messages.
func consistentOutput() studyOutput {
	total := report.Table2Row{Tweets: 100, TweetUsers: 40, GroupURLs: 10, JoinedGroups: 3, Messages: 500, MessageUsers: 20}
	table2 := report.Table2Result{Total: total}.Render()
	return studyOutput{
		outcomes:       msgscope.GroupOutcomes{Discovered: 10, Alive: 6, Revoked: 3, Deferred: 1},
		table2Total:    total,
		counts:         store.Counts{Tweets: 100, GroupURLs: 10, JoinedGroups: 3, Messages: 500},
		renders:        renders{"table2": table2, "fig1": "figure one\n"},
		exportedGroups: 10,
	}
}

func TestCheckStudyAcceptsConsistentOutput(t *testing.T) {
	if p := checkStudy(consistentOutput()); len(p) != 0 {
		t.Fatalf("consistent output flagged: %v", p)
	}
}

func TestCheckStudyRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*studyOutput)
		want   string
	}{
		{"a lost group", func(o *studyOutput) {
			o.outcomes.Alive--
			o.outcomes.Lost++
		}, "lost"},
		{"outcomes that do not add up", func(o *studyOutput) { o.outcomes.Revoked++ }, "add up"},
		{"a changed tweet count", func(o *studyOutput) { o.counts.Tweets++ }, "Table 2 totals"},
		{"a changed message count", func(o *studyOutput) { o.table2Total.Messages-- }, "Table 2 totals"},
		{"a group missing from the export", func(o *studyOutput) { o.exportedGroups-- }, "export holds"},
		{"a tampered Table 2 render", func(o *studyOutput) {
			o.renders["table2"] = strings.Replace(o.renders["table2"], "500", "501", 1)
		}, "rendered Table 2"},
		{"a Table 2 render without totals", func(o *studyOutput) { o.renders["table2"] = "Table 2\n" }, "Total row"},
	} {
		o := consistentOutput()
		tc.tamper(&o)
		problems := checkStudy(o)
		if !strings.Contains(strings.Join(problems, "; "), tc.want) {
			t.Errorf("%s: problems %q, want one mentioning %q", tc.name, problems, tc.want)
		}
	}
}

func TestCountLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "groups.jsonl")
	if err := os.WriteFile(path, []byte("{}\n{}\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := countLines(path); err != nil || n != 3 {
		t.Errorf("countLines = %d, %v; want 3 lines", n, err)
	}
}

func TestCompareRendersRejectsTampering(t *testing.T) {
	want := renders{"fig1": "a\n", "table2": "b\n"}
	if p := compareRenders("x", renders{"fig1": "a\n", "table2": "b\n"}, want); len(p) != 0 {
		t.Errorf("identical renders flagged: %v", p)
	}
	for name, got := range map[string]renders{
		"tampered": {"fig1": "a\n", "table2": "b \n"},
		"missing":  {"fig1": "a\n"},
		"extra":    {"fig1": "a\n", "table2": "b\n", "fig2": "c\n"},
	} {
		if p := compareRenders("x", got, want); len(p) != 1 {
			t.Errorf("%s renders: problems %v, want exactly one", name, p)
		}
	}
}

func TestDigestCoversFilesAndRenders(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("tweets.jsonl", "{\"id\":1}\n")
	write("groups.jsonl", "{\"code\":\"a\"}\n")
	r := renders{"fig1": "one\n", "table2": "two\n"}
	base, baseParts, err := digest(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := digest(dir, renders{"table2": "two\n", "fig1": "one\n"}); again != base {
		t.Error("digest depends on map order")
	}
	tampered, tamperedParts, _ := digest(dir, renders{"fig1": "one\n", "table2": "two!\n"})
	if tampered == base {
		t.Error("digest ignores a tampered render")
	}
	msg := digestMismatch("x", studyResult{Digest: tampered, Parts: tamperedParts}, studyResult{Digest: base, Parts: baseParts})
	if !strings.HasSuffix(msg, "in render/table2") {
		t.Errorf("mismatch names the wrong parts: %s", msg)
	}
	write("tweets.jsonl", "{\"id\":2}\n")
	if d, _, _ := digest(dir, r); d == base {
		t.Error("digest ignores a changed dataset file")
	}
}

func TestLedgerRejectsAChangedDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	l, err := loadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.check("discovery-38d/1", "aaa"); p != "" {
		t.Fatalf("first digest flagged: %s", p)
	}
	if err := l.save(); err != nil {
		t.Fatal(err)
	}
	l, err = loadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.check("discovery-38d/1", "aaa"); p != "" {
		t.Errorf("repeated digest flagged: %s", p)
	}
	if p := l.check("discovery-38d/1", "bbb"); p == "" {
		t.Error("a changed digest for the same workload and seed was accepted")
	}
}

func TestExperimentSetMatchesProduct(t *testing.T) {
	if err := checkExperimentSet(); err != nil {
		t.Fatal(err)
	}
}
