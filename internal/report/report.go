// Package report regenerates every table and figure of the paper's
// evaluation from a collected dataset. Each experiment has a typed result
// carrying the numbers plus a Render method that prints the same rows or
// series the paper reports. DESIGN.md §4 maps experiment IDs to these
// functions; EXPERIMENTS.md records paper-vs-measured values.
package report

import (
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/prof"
	"msgscope/internal/store"
)

// Dataset is the input to every experiment: the collected store plus the
// study window. When Snap is set (the study driver takes one frozen,
// indexed snapshot after collection) the experiments read the snapshot's
// pre-sorted slices and per-platform partitions instead of re-deriving
// them from the store's maps on every call; without it they fall back to
// store scans, so hand-built Datasets keep working.
type Dataset struct {
	Store *store.Store
	Start time.Time
	Days  int
	Snap  *store.Snapshot
	// Agg, when set, memoizes the single-pass figure/table aggregation so
	// every experiment computed from this dataset shares one scan per
	// record class (see aggregate.go).
	Agg *AggCache
	// Prof, when set, receives per-analysis-stage wall timings ("lda",
	// "aggregate", "figures") as experiments are computed.
	Prof *prof.Recorder
}

// dayOf maps an instant to a zero-based study day.
func (d Dataset) dayOf(t time.Time) int {
	return int(t.Sub(d.Start) / (24 * time.Hour))
}

// Tweets returns a view of the collected platform tweets.
func (d Dataset) Tweets() store.TweetList {
	if d.Snap != nil {
		return d.Snap.Tweets
	}
	return d.Store.Tweets()
}

// Control returns a view of the control-stream tweets.
func (d Dataset) Control() store.ControlList {
	if d.Snap != nil {
		return d.Snap.Control
	}
	return d.Store.Control()
}

// Messages returns a view of the collected in-group messages.
func (d Dataset) Messages() store.MessageList {
	if d.Snap != nil {
		return d.Snap.Messages
	}
	return d.Store.Messages()
}

// Groups returns the view of all discovered groups, sorted by platform
// then code.
func (d Dataset) Groups() store.GroupList {
	if d.Snap != nil {
		return d.Snap.Groups
	}
	return d.Store.Groups()
}

// GroupsOf returns the view of one platform's groups, sorted by code.
func (d Dataset) GroupsOf(p platform.Platform) store.GroupList {
	if d.Snap != nil {
		return d.Snap.GroupsOf(p)
	}
	return d.Store.GroupsOf(p)
}

// JoinedOf returns the view of one platform's joined groups, sorted by
// code.
func (d Dataset) JoinedOf(p platform.Platform) store.GroupList {
	if d.Snap != nil {
		return d.Snap.JoinedOf(p)
	}
	return d.Store.GroupsOf(p).Where(func(g store.GroupRecord) bool {
		return g.Joined
	})
}

// Users returns all observed users, sorted by platform then key.
func (d Dataset) Users() []*store.UserRecord {
	if d.Snap != nil {
		return d.Snap.Users
	}
	return d.Store.Users()
}

// CountsFor returns one platform's Table 2 counts.
func (d Dataset) CountsFor(p platform.Platform) store.Counts {
	if d.Snap != nil {
		return d.Snap.CountsFor(p)
	}
	return d.Store.CountsFor(p)
}

// TweetsOf returns a view of one platform's tweets, in collection order.
func (d Dataset) TweetsOf(p platform.Platform) store.TweetList {
	if d.Snap != nil {
		return d.Snap.TweetsOf(p)
	}
	return d.Store.Tweets().Where(func(t store.TweetRecord) bool {
		return t.Platform == p
	})
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render() string
}
