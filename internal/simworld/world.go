// Package simworld generates the synthetic ground-truth ecosystem the study
// measures: group URLs with full lifecycles (creation, Twitter share
// schedule, membership dynamics, revocation), the tweets that carry them, a
// control tweet stream, per-platform user populations with PII attributes,
// and in-group message streams. Platform and Twitter services serve this
// world over HTTP; the collection pipeline never reads it directly.
package simworld

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"msgscope/internal/dist"
	"msgscope/internal/ids"
	"msgscope/internal/platform"
	"msgscope/internal/textgen"
)

// Group is the ground truth behind one invite URL.
type Group struct {
	Platform platform.Platform
	Code     string // invite code or public name (the URL path component)
	URL      string // canonical URL as shared in tweets
	Title    string
	Lang     string
	Topic    textgen.Topic

	CreatedAt    time.Time // group creation (staleness anchor)
	FirstShareAt time.Time // first tweet carrying the URL
	RevokedAt    time.Time // zero value: never revoked in the window

	IsChannel     bool // Telegram: channel rather than group
	HiddenMembers bool // Telegram: admins hide the member list
	SocialOnly    bool // shared only on the secondary network, never tweeted

	CreatorIdx     int    // index into the platform's creator pool
	CreatorPhone   string // WhatsApp: exposed on the landing page
	CreatorCountry string // WhatsApp: phone country code

	GuildID uint64 // Discord: snowflake encoding CreatedAt

	BaseMembers int     // size at first share
	Drift       float64 // members/day (signed)
	OnlineFrac  float64 // expected online fraction

	Channels int       // rooms per unit (Discord servers have several)
	MsgRates []float64 // expected messages/day per room

	noiseSeed uint64
	shares    []time.Time // full share schedule (including FirstShareAt)
}

// Tweet is one synthetic tweet. Group is nil for control-stream tweets.
type Tweet struct {
	ID        uint64
	AuthorID  string
	CreatedAt time.Time
	Text      string
	Lang      string
	Hashtags  int
	Mentions  int
	Retweet   bool
	Group     *Group
}

// Message is one in-group message of a joined group.
type Message struct {
	GroupCode string
	Channel   int
	AuthorIdx int // index into the platform user pool
	SentAt    time.Time
	Type      platform.MessageType
	Text      string // empty unless Config.GenerateMessageText
	// Seq disambiguates messages sharing a millisecond: channel index in
	// the high bits, the per-(day, channel) generation index below. The
	// Discord service packs it into message snowflakes.
	Seq uint32
}

// User is one messaging-platform user with their PII attributes.
type User struct {
	Platform     platform.Platform
	Idx          int
	ID           uint64
	Name         string
	Phone        string // E.164-ish; empty if the platform never exposes it
	Country      string
	PhoneVisible bool
	Linked       []string // Discord connected accounts (Table 5 platforms)
}

// groupKey is the comparable invite-code index key; a struct key keeps the
// per-request GroupByCode lookups on the service hot path allocation-free.
type groupKey struct {
	p    platform.Platform
	code string
}

// World holds the generated ground truth.
type World struct {
	Cfg Config

	Groups       map[platform.Platform][]*Group
	byKey        map[groupKey]*Group
	TweetsByDay  [][]*Tweet // per study day, sorted by CreatedAt
	ControlByDay [][]*Tweet
	PostsByDay   [][]*Post // secondary social network

	userPoolSize map[platform.Platform]int

	msgModelMu sync.Mutex
	msgModels  map[*Group]*msgModel

	// userCache memoizes UserByIdx: user identities are pure functions of
	// (platform, idx, seed) and the history/participant paths resolve the
	// same authors for every page. Entries live as long as the world.
	userCache sync.Map // uint64(p)<<32|idx -> User

	// Samplers that UserByIdx would otherwise rebuild per call.
	countryCats    map[platform.Platform]*dist.Categorical
	linkedSamplers map[platform.Platform]*dist.StringSampler
}

// New generates a world from cfg. Generation is deterministic in cfg.Seed.
func New(cfg Config) *World {
	if cfg.Days <= 0 {
		cfg.Days = 38
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2020, time.April, 8, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	w := &World{
		Cfg:          cfg,
		Groups:       map[platform.Platform][]*Group{},
		byKey:        map[groupKey]*Group{},
		TweetsByDay:  make([][]*Tweet, cfg.Days),
		ControlByDay: make([][]*Tweet, cfg.Days),
		userPoolSize: map[platform.Platform]int{},
	}
	// Pool sizes are set so member overlap across joined groups matches the
	// paper: WhatsApp's 416 joined groups held 20,906 distinct members for
	// ~21K member slots — essentially no overlap.
	w.userPoolSize[platform.WhatsApp] = scaleCount(600000, cfg.Scale, 20000)
	w.userPoolSize[platform.Telegram] = scaleCount(900000, cfg.Scale, 20000)
	w.userPoolSize[platform.Discord] = scaleCount(70000, cfg.Scale, 5000)
	w.countryCats = map[platform.Platform]*dist.Categorical{}
	w.linkedSamplers = map[platform.Platform]*dist.StringSampler{}
	for _, p := range platform.All {
		pcfg := w.platformCfg(p)
		if len(pcfg.Countries) > 0 {
			w.countryCats[p] = dist.NewCategorical(countryWeights(pcfg))
		}
		if len(pcfg.LinkedAccounts) > 0 {
			w.linkedSamplers[p] = dist.NewStringSampler(pcfg.LinkedAccounts)
		}
	}
	for _, p := range platform.All {
		w.genPlatform(p)
	}
	w.genControl()
	w.genSocial()
	for d := range w.TweetsByDay {
		sort.Slice(w.TweetsByDay[d], func(i, j int) bool {
			a, b := w.TweetsByDay[d][i], w.TweetsByDay[d][j]
			if !a.CreatedAt.Equal(b.CreatedAt) {
				return a.CreatedAt.Before(b.CreatedAt)
			}
			return a.ID < b.ID
		})
	}
	return w
}

func scaleCount(full int, scale float64, floor int) int {
	n := int(math.Round(float64(full) * scale))
	if n < floor {
		n = floor
	}
	return n
}

func (w *World) platformCfg(p platform.Platform) *PlatformConfig {
	switch p {
	case platform.WhatsApp:
		return &w.Cfg.WhatsApp
	case platform.Telegram:
		return &w.Cfg.Telegram
	case platform.Discord:
		return &w.Cfg.Discord
	}
	panic(fmt.Sprintf("simworld: unknown platform %v", p))
}

// GroupByCode resolves an invite code to its ground-truth group, or nil.
func (w *World) GroupByCode(p platform.Platform, code string) *Group {
	return w.byKey[groupKey{p, code}]
}

// DayOf maps an instant to a zero-based study day (negative before start).
func (w *World) DayOf(t time.Time) int {
	return int(t.Sub(w.Cfg.Start) / (24 * time.Hour))
}

// genPlatform generates all groups and their tweets for one platform.
func (w *World) genPlatform(p platform.Platform) {
	cfg := w.platformCfg(p)
	rng := ids.Fork(w.Cfg.Seed, "world/"+p.String())
	tg := textgen.New(ids.Fork(w.Cfg.Seed, "text/"+p.String()))
	topics := textgen.TopicsFor(p)
	langs := dist.NewStringSampler(cfg.Languages)
	authorZipf := dist.NewZipf(cfg.AuthorZipfS, scaleCount(cfg.AuthorPool, w.Cfg.Scale, 500))
	shareTail := dist.ZipfWithMean(cfg.TailMeanShares-1, cfg.MaxShares-1)
	countries := countrySampler(cfg)
	guildSeq := ids.NewSequence(ids.DiscordEpochMS)
	tweetSeq := ids.NewSequence(ids.TwitterEpochMS)
	cs := &creatorState{}

	dayLen := 24 * time.Hour
	// NewURLsPerDay calibrates the *Twitter-discoverable* population;
	// social-only groups come on top of it.
	dailyGroups := cfg.NewURLsPerDay * w.Cfg.Scale / (1 - cfg.SocialOnlyP)
	for day := 0; day < w.Cfg.Days; day++ {
		nNew := dist.Poisson(rng, dailyGroups)
		dayStart := w.Cfg.Start.Add(time.Duration(day) * dayLen)
		for i := 0; i < nNew; i++ {
			g := w.genGroup(p, cfg, rng, tg, topics, langs, countries, guildSeq, cs, dayStart)
			w.genShares(g, cfg, rng, shareTail, dayStart)
			w.Groups[p] = append(w.Groups[p], g)
			w.byKey[groupKey{p, g.Code}] = g
			w.genTweets(g, cfg, rng, tg, langs, authorZipf, tweetSeq, p)
		}
	}
}

// creatorState tracks the per-platform creator population: one country per
// creator (the identity must be stable across their groups) and the
// group-creator history used for preferential attachment (a few users
// create dozens of groups — the paper's 28-group WhatsApp user and
// 61-group Discord user).
type creatorState struct {
	countries     []string
	groupCreators []int // creator index of each group, in creation order
}

// genGroup builds one group with its full lifecycle.
func (w *World) genGroup(p platform.Platform, cfg *PlatformConfig, rng *rand.Rand,
	tg *textgen.Generator, topics []textgen.Topic, langs *dist.StringSampler,
	countries *dist.StringSampler, guildSeq *ids.Sequence, cs *creatorState,
	dayStart time.Time) *Group {

	firstShare := dayStart.Add(time.Duration(rng.Int64N(int64(24 * time.Hour))))
	g := &Group{
		Platform:     p,
		Topic:        tg.PickTopic(topics),
		Lang:         langs.Sample(rng),
		FirstShareAt: firstShare,
		noiseSeed:    rng.Uint64(),
	}
	g.Title = tg.GroupTitle(g.Lang, g.Topic)

	// Invite code / URL shape per platform.
	switch p {
	case platform.WhatsApp:
		g.Code = ids.Code(rng, 22)
		g.URL = "https://chat.whatsapp.com/" + g.Code
	case platform.Telegram:
		if dist.Bernoulli(rng, 0.55) {
			g.Code = "joinchat/" + ids.Code(rng, 16)
		} else {
			g.Code = "grp" + ids.Code(rng, 10)
		}
		host := "t.me"
		r := rng.Float64()
		switch {
		case r < 0.08:
			host = "telegram.me"
		case r < 0.10:
			host = "telegram.org"
		}
		g.URL = "https://" + host + "/" + g.Code
	case platform.Discord:
		g.Code = ids.Code(rng, 8)
		if dist.Bernoulli(rng, 0.15) {
			g.URL = "https://discord.com/invite/" + g.Code
		} else {
			g.URL = "https://discord.gg/" + g.Code
		}
	}

	// Staleness (Figure 5): creation date relative to the first share.
	switch {
	case dist.Bernoulli(rng, cfg.SameDayCreationP):
		back := time.Duration(rng.Int64N(int64(20 * time.Hour)))
		g.CreatedAt = firstShare.Add(-back)
		if g.CreatedAt.Before(dayStart) {
			g.CreatedAt = dayStart
		}
	case dist.Bernoulli(rng, cfg.OldGroupP/(1-cfg.SameDayCreationP)):
		years := 1 + rng.Float64()*3.5 // 1 to ~4.5 years, rare 6-year tail
		if rng.Float64() < 0.02 {
			years += rng.Float64() * 2
		}
		g.CreatedAt = firstShare.Add(-time.Duration(years * 365 * 24 * float64(time.Hour)))
	default:
		days := dist.Exponential(rng, cfg.MidAgeMeanDays)
		if days > 364 {
			days = 364
		}
		if days < 1 {
			days = 1
		}
		g.CreatedAt = firstShare.Add(-time.Duration(days * 24 * float64(time.Hour)))
	}

	// Revocation fate (Figure 6).
	windowEnd := w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
	switch {
	case dist.Bernoulli(rng, cfg.QuickDeathP):
		// Dead within 0.2-2.5 hours of the first share, i.e. (almost
		// always) before the end-of-day monitoring sweep first probes it.
		g.RevokedAt = firstShare.Add(time.Duration(12+rng.Int64N(138)) * time.Minute)
	case dist.Bernoulli(rng, cfg.SlowDeathP/math.Max(1e-9, 1-cfg.QuickDeathP)):
		rest := windowEnd.Sub(firstShare)
		if rest > 24*time.Hour {
			g.RevokedAt = firstShare.Add(24*time.Hour +
				time.Duration(rng.Int64N(int64(rest-24*time.Hour))))
		} else {
			g.RevokedAt = firstShare.Add(rest / 2)
		}
	}

	// Telegram structure.
	if p == platform.Telegram {
		g.IsChannel = dist.Bernoulli(rng, cfg.ChannelP)
		g.HiddenMembers = dist.Bernoulli(rng, cfg.HiddenMembersP)
	}

	// A slice of the population is shared only on the secondary social
	// network and never tweeted.
	g.SocialOnly = dist.Bernoulli(rng, cfg.SocialOnlyP)

	// Creator: either a fresh user or, with CreatorMultiP, an existing
	// creator chosen by preferential attachment (proportional to the
	// groups they already created), which yields the paper's heavy tail
	// of multi-group creators.
	if dist.Bernoulli(rng, cfg.CreatorMultiP) && len(cs.groupCreators) > 0 {
		g.CreatorIdx = cs.groupCreators[rng.IntN(len(cs.groupCreators))]
	} else {
		g.CreatorIdx = len(cs.countries)
		cs.countries = append(cs.countries, countries.Sample(rng))
	}
	cs.groupCreators = append(cs.groupCreators, g.CreatorIdx)
	if p == platform.WhatsApp {
		g.CreatorCountry = cs.countries[g.CreatorIdx]
		g.CreatorPhone = phoneFor(g.CreatorCountry, uint64(g.CreatorIdx))
	}
	if p == platform.Discord {
		g.GuildID = guildSeq.Next(g.CreatedAt)
	}

	// Membership dynamics (Figure 7).
	g.BaseMembers = dist.LogNormalInt(rng, cfg.MemberMu, cfg.MemberSigma, 2, cfg.MemberCap)
	dir := 0.0
	r := rng.Float64()
	switch {
	case r < cfg.GrowP:
		dir = 1
	case r < cfg.GrowP+cfg.ShrinkP:
		dir = -1
	}
	g.Drift = dir * float64(g.BaseMembers) * cfg.DriftFracPerDay * (0.2 + rng.Float64()*1.8)
	if cfg.HasOnlineCount {
		g.OnlineFrac = sigmoid(rng.NormFloat64()*cfg.OnlineLogitSigma + cfg.OnlineLogitMu)
	}

	// Messaging shape (Figures 8, 9).
	g.Channels = cfg.ChannelsMin
	if cfg.ChannelsMax > cfg.ChannelsMin {
		g.Channels += rng.IntN(cfg.ChannelsMax - cfg.ChannelsMin + 1)
	}
	g.MsgRates = make([]float64, g.Channels)
	for c := range g.MsgRates {
		g.MsgRates[c] = dist.LogNormal(rng, cfg.MsgPerDayMu, cfg.MsgPerDaySigma)
		if g.MsgRates[c] > 4000 {
			g.MsgRates[c] = 4000
		}
	}
	return g
}

// genShares samples the share schedule: total share count S (single-share
// mass plus Zipf tail) spread over days with geometric gaps.
func (w *World) genShares(g *Group, cfg *PlatformConfig, rng *rand.Rand,
	tail *dist.Zipf, dayStart time.Time) {

	shares := 1
	switch {
	case cfg.ViralP > 0 && dist.Bernoulli(rng, cfg.ViralP):
		shares = cfg.ViralMinShares + rng.IntN(cfg.ViralMaxShares-cfg.ViralMinShares+1)
	case !dist.Bernoulli(rng, cfg.SingleShareP):
		shares = 1 + tail.Sample(rng)
	}
	g.shares = make([]time.Time, 0, min(shares, 1<<16))
	g.shares = append(g.shares, g.FirstShareAt)
	windowEnd := w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
	if shares >= 40 {
		// Heavily shared URLs are re-shared continuously for the rest of
		// the window (the paper's >10K-tweet Telegram URLs appear every
		// day); scheduling them uniformly also keeps the share counts a
		// collector can observe close to the calibrated means instead of
		// truncating long geometric-gap chains at the window edge.
		span := windowEnd.Sub(g.FirstShareAt)
		for i := 1; i < shares; i++ {
			g.shares = append(g.shares, g.FirstShareAt.Add(time.Duration(rng.Int64N(int64(span)))))
		}
		return
	}
	t := g.FirstShareAt
	for i := 1; i < shares; i++ {
		gapDays := dist.Geometric(rng, cfg.ShareSpreadP)
		// Re-shares of heavily shared URLs cluster: most land on the same
		// day, advancing by fractions of a day.
		t = t.Add(time.Duration(float64(gapDays)*24*float64(time.Hour)) +
			time.Duration(rng.Int64N(int64(6*time.Hour))))
		if !t.Before(windowEnd) {
			break
		}
		g.shares = append(g.shares, t)
	}
}

// genTweets materializes the group's share schedule as tweets.
func (w *World) genTweets(g *Group, cfg *PlatformConfig, rng *rand.Rand,
	tg *textgen.Generator, langs *dist.StringSampler, authorZipf *dist.Zipf,
	tweetSeq *ids.Sequence, p platform.Platform) {

	if g.SocialOnly {
		return
	}
	for _, at := range g.shares {
		day := w.DayOf(at)
		if day < 0 || day >= w.Cfg.Days {
			continue
		}
		// Sharers mostly tweet in the group's language; heavily shared URLs
		// are re-shared far beyond their community, so their tweet languages
		// follow the platform mix instead of multiplying one group's
		// language thousands of times.
		resampleP := 0.25
		if len(g.shares) >= 40 {
			resampleP = 1
		}
		lang := g.Lang
		if rng.Float64() < resampleP {
			lang = langs.Sample(rng)
		}
		tw := &Tweet{
			ID:        tweetSeq.Next(at),
			AuthorID:  fmt.Sprintf("%s-u%d", p, authorZipf.Sample(rng)),
			CreatedAt: at,
			Lang:      lang,
			Hashtags:  featureCount(rng, cfg.HashtagP, cfg.MultiHashtagP),
			Mentions:  featureCount(rng, cfg.MentionP, cfg.MultiMentionP),
			Retweet:   dist.Bernoulli(rng, cfg.RetweetP),
			Group:     g,
		}
		tw.Text = tg.Tweet(textgen.TweetSpec{
			Lang:       lang,
			Topic:      g.Topic,
			URL:        g.URL,
			NumHashtag: tw.Hashtags,
			NumMention: tw.Mentions,
			Retweet:    tw.Retweet,
		})
		w.TweetsByDay[day] = append(w.TweetsByDay[day], tw)
	}
}

// genControl generates the 1% sample control stream.
func (w *World) genControl() {
	cfg := w.Cfg.Control
	rng := ids.Fork(w.Cfg.Seed, "world/control")
	tg := textgen.New(ids.Fork(w.Cfg.Seed, "text/control"))
	topics := textgen.ControlTopics()
	langs := dist.NewStringSampler(cfg.Languages)
	tweetSeq := ids.NewSequence(ids.TwitterEpochMS)
	authorZipf := dist.NewZipf(1.05, scaleCount(1_200_000, w.Cfg.Scale, 2000))

	for day := 0; day < w.Cfg.Days; day++ {
		n := dist.Poisson(rng, cfg.TweetsPerDay*w.Cfg.Scale)
		dayStart := w.Cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		for i := 0; i < n; i++ {
			at := dayStart.Add(time.Duration(rng.Int64N(int64(24 * time.Hour))))
			lang := langs.Sample(rng)
			topic := tg.PickTopic(topics)
			tw := &Tweet{
				ID:        tweetSeq.Next(at),
				AuthorID:  fmt.Sprintf("ctl-u%d", authorZipf.Sample(rng)),
				CreatedAt: at,
				Lang:      lang,
				Hashtags:  featureCount(rng, cfg.HashtagP, cfg.MultiHashtagP),
				Mentions:  featureCount(rng, cfg.MentionP, cfg.MultiMentionP),
				Retweet:   dist.Bernoulli(rng, cfg.RetweetP),
			}
			tw.Text = tg.Tweet(textgen.TweetSpec{
				Lang:       lang,
				Topic:      topic,
				NumHashtag: tw.Hashtags,
				NumMention: tw.Mentions,
				Retweet:    tw.Retweet,
			})
			w.ControlByDay[day] = append(w.ControlByDay[day], tw)
		}
		sort.Slice(w.ControlByDay[day], func(i, j int) bool {
			return w.ControlByDay[day][i].CreatedAt.Before(w.ControlByDay[day][j].CreatedAt)
		})
	}
}

// featureCount samples 0 (1-p), 1 (p-pMulti), or 2+geometric (pMulti).
func featureCount(rng *rand.Rand, p, pMulti float64) int {
	u := rng.Float64()
	switch {
	case u >= p:
		return 0
	case u >= pMulti:
		return 1
	default:
		return 2 + dist.Geometric(rng, 0.6)
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func countrySampler(cfg *PlatformConfig) *dist.StringSampler {
	if len(cfg.Countries) == 0 {
		return dist.NewStringSampler([]dist.WeightedString{{Key: "US", Weight: 1}})
	}
	return dist.NewStringSampler(cfg.Countries)
}

var countryCallingCodes = map[string]string{
	"BR": "55", "NG": "234", "ID": "62", "IN": "91", "SA": "966",
	"MX": "52", "AR": "54", "US": "1", "PK": "92", "EG": "20",
	"TR": "90", "KE": "254", "ZA": "27", "CO": "57", "ES": "34",
	"KW": "965", "OTHER": "44",
}

// phoneFor builds a deterministic E.164-ish phone number for a creator or
// member identity.
func phoneFor(country string, idx uint64) string {
	cc, ok := countryCallingCodes[country]
	if !ok {
		cc = "44"
	}
	// Mix the index so consecutive users don't get consecutive numbers.
	x := idx*2654435761 + 0x9E3779B9
	return fmt.Sprintf("+%s%09d", cc, x%1_000_000_000)
}
