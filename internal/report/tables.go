package report

import (
	"fmt"
	"strings"

	"msgscope/internal/analysis/lda"
	"msgscope/internal/analysis/textproc"
	"msgscope/internal/platform"
	"msgscope/internal/privacy"
)

// --- Table 1 ---

// Table1 renders the static platform-characteristics table.
func Table1() string {
	chars := platform.Characteristics()
	var sb strings.Builder
	sb.WriteString("Table 1: platform characteristics\n")
	rows := []struct {
		name string
		get  func(platform.Characteristic) string
	}{
		{"Initial release", func(c platform.Characteristic) string { return c.InitialRelease }},
		{"User base", func(c platform.Characteristic) string { return c.UserBase }},
		{"Clients", func(c platform.Characteristic) string { return c.Clients }},
		{"Registration", func(c platform.Characteristic) string { return c.Registration }},
		{"Public chats", func(c platform.Characteristic) string { return c.PublicChatOptions }},
		{"Max members", func(c platform.Characteristic) string { return c.MaxMembers }},
		{"Collection API", func(c platform.Characteristic) string { return c.DataCollectionAPI }},
		{"Forwarding", func(c platform.Characteristic) string { return c.MessageForwarding }},
		{"E2E encryption", func(c platform.Characteristic) string { return c.EndToEndEncryption }},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s | WA: %-28s | TG: %-42s | DC: %s\n",
			r.name, r.get(chars[platform.WhatsApp]), r.get(chars[platform.Telegram]),
			r.get(chars[platform.Discord]))
	}
	return sb.String()
}

// --- Table 2 ---

// Table2Row is one platform's dataset overview.
type Table2Row struct {
	Platform     platform.Platform
	Tweets       int
	TweetUsers   int
	GroupURLs    int
	JoinedGroups int
	Messages     int
	MessageUsers int // distinct users observed in joined groups
}

// Table2Result is the dataset-overview table.
type Table2Result struct {
	Rows  []Table2Row
	Total Table2Row
}

// Table2 computes the dataset overview (the paper's Table 2).
func Table2(ds Dataset) Table2Result { return ds.aggregates().table2 }

// Render prints the table.
func (t Table2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 2: dataset overview\n")
	sb.WriteString("platform  | #tweets   #users   #groupURLs | #joined #messages #users\n")
	row := func(name string, r Table2Row) {
		fmt.Fprintf(&sb, "%-9s | %8d %8d %10d | %7d %9d %7d\n",
			name, r.Tweets, r.TweetUsers, r.GroupURLs, r.JoinedGroups, r.Messages, r.MessageUsers)
	}
	for _, r := range t.Rows {
		row(r.Platform.String(), r)
	}
	row("Total", t.Total)
	return sb.String()
}

// --- Table 3 ---

// Table3Result holds the per-platform LDA topics.
type Table3Result struct {
	Topics map[platform.Platform][]lda.Summary
	// EnglishTweets counts the inputs per platform.
	EnglishTweets map[platform.Platform]int
}

// Table3Config tunes the topic extraction.
type Table3Config struct {
	Topics     int // per platform (paper: 10)
	TopWords   int // terms shown per topic (paper: 10)
	Iterations int
	Seed       uint64
	// MaxTweets bounds the LDA input per platform (0 = all); Gibbs is
	// quadratic-ish in corpus size and the shape is stable on samples.
	MaxTweets int
	// Sampler picks the Gibbs kernel (dense or alias); the zero value
	// keeps lda's default routing, which fits Table 3 with alias.
	Sampler lda.Sampler
}

// Table3 extracts LDA topics from the English tweets of each platform.
func Table3(ds Dataset, cfg Table3Config) Table3Result {
	if cfg.Topics <= 0 {
		cfg.Topics = 10
	}
	if cfg.TopWords <= 0 {
		cfg.TopWords = 10
	}
	res := Table3Result{
		Topics:        map[platform.Platform][]lda.Summary{},
		EnglishTweets: map[platform.Platform]int{},
	}
	tok := textproc.NewTokenizer()
	for _, p := range platform.All {
		var texts []string
		tweets := ds.TweetsOf(p)
		for i, n := 0, tweets.Len(); i < n; i++ {
			t := tweets.At(i)
			if t.Lang != "en" {
				continue
			}
			if cfg.MaxTweets > 0 && len(texts) >= cfg.MaxTweets {
				break
			}
			texts = append(texts, t.Text)
		}
		res.EnglishTweets[p] = len(texts)
		if len(texts) == 0 {
			continue
		}
		corpus := textproc.NewCorpus(tok, texts)
		done := func() {}
		if ds.Prof != nil {
			done = ds.Prof.StartStage("lda")
		}
		model := lda.Fit(corpus, lda.Config{
			Topics:     cfg.Topics,
			Iterations: cfg.Iterations,
			Seed:       cfg.Seed,
			Sampler:    cfg.Sampler,
		})
		done()
		res.Topics[p] = model.Summaries(cfg.TopWords)
	}
	return res
}

// Render prints the topic table.
func (t Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: LDA topics from English tweets\n")
	for _, p := range platform.All {
		fmt.Fprintf(&sb, "%s (%d English tweets):\n", p, t.EnglishTweets[p])
		for _, s := range t.Topics[p] {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
	}
	return sb.String()
}

// --- Tables 4 and 5 ---

// Table4Result wraps the privacy exposure analysis.
type Table4Result struct {
	Report privacy.Report
}

// Table4 computes the PII-exposure statistics. It shares one PII analysis
// with Table 5 through the dataset's aggregation pass.
func Table4(ds Dataset) Table4Result {
	return Table4Result{Report: ds.aggregates().privacyReport}
}

// Render prints Table 4.
func (t Table4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 4: exposed PII per platform\n")
	sb.WriteString("platform  | members creators | phones (share) | linked (share)\n")
	for _, e := range t.Report.Exposures {
		fmt.Fprintf(&sb, "%-9s | %7d %8d | %6d (%5.2f%%) | %6d (%5.2f%%)\n",
			e.Platform, e.MembersSeen, e.CreatorsSeen,
			e.PhonesExposed, e.PhoneShare*100, e.LinkedExposed, e.LinkedShare*100)
	}
	return sb.String()
}

// Table5Result is the Discord linked-account breakdown.
type Table5Result struct {
	Rows []privacy.LinkedCount
}

// Table5 computes the linked-account breakdown, sharing Table 4's PII
// analysis.
func Table5(ds Dataset) Table5Result {
	return Table5Result{Rows: ds.aggregates().privacyReport.Linked}
}

// Render prints Table 5.
func (t Table5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 5: Discord users' linked accounts\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-18s %6d (%5.2f%%)\n", r.Platform, r.Users, r.Share*100)
	}
	return sb.String()
}
