package store

import (
	"time"

	"msgscope/internal/platform"
)

// Snapshot is a frozen, indexed view of the dataset, taken once after a
// study's collection completes. The paper derives every table and figure
// from one immutable 38-day dataset, so the report engine can exploit
// post-collection immutability aggressively: the column views and index
// slices here are shared (never copied per call) and pre-partitioned,
// letting experiments do O(their output) work instead of re-sorting the
// store's maps on each call.
//
// The per-platform tweet partitions are []uint32 row indexes into the
// columnar tweet family — 4 bytes per entry where the former layout kept
// an 8-byte pointer into a slice of structs.
//
// Contract: take the snapshot only after collection has stopped, and treat
// everything it exposes as read-only.
type Snapshot struct {
	Start time.Time
	Days  int

	// Flat family views in collection order.
	Tweets   TweetList
	Control  ControlList
	Posts    []PostRecord
	Messages MessageList

	// Groups and Users are sorted by platform then code/key, matching the
	// store's deterministic iteration order. Groups is a columnar view;
	// every per-platform and joined partition below shares its stripe
	// snapshots, so the whole group side of a Snapshot costs one set of
	// column headers plus the ref slices.
	Groups GroupList
	Users  []*UserRecord

	tweetsByPlat map[platform.Platform]TweetList
	groupsByPlat map[platform.Platform]GroupList
	joinedByPlat map[platform.Platform]GroupList
	counts       map[platform.Platform]Counts
}

// Snapshot freezes the store into an indexed view of the study window
// [start, start+days). It sees a mutually consistent dataset even if stray
// writers linger, by taking every lock in the store's documented total
// order — tweetMu, msgMu, then each striped family's cacheMu followed by
// its stripes in ascending index order — which no other multi-lock path
// contradicts, so it cannot deadlock.
func (s *Store) Snapshot(start time.Time, days int) *Snapshot {
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	s.msgMu.Lock()
	defer s.msgMu.Unlock()
	s.groups.lockAll()
	defer s.groups.unlockAll()
	s.users.lockAll()
	defer s.users.unlockAll()

	s.groups.rebuildLocked(true)
	s.users.rebuildLocked(true)
	// Compact scattered observation chains into group-major order while
	// every stripe is held, so the views below (and any later ones) serve
	// dense O(1)-addressable series.
	s.groups.compactAllLocked()
	groupViews := s.groups.viewsLocked(true)

	tweets := TweetList{c: s.tweets.view(), all: true}
	msgs := MessageList{c: s.msgs.view(), all: true}
	sn := &Snapshot{
		Start:        start,
		Days:         days,
		Tweets:       tweets,
		Control:      ControlList{c: s.control.view()},
		Posts:        s.posts,
		Messages:     msgs,
		Groups:       GroupList{views: groupViews, refs: s.groups.sorted},
		Users:        s.users.materializeLocked(true),
		tweetsByPlat: map[platform.Platform]TweetList{},
		groupsByPlat: map[platform.Platform]GroupList{},
		joinedByPlat: map[platform.Platform]GroupList{},
		counts:       map[platform.Platform]Counts{},
	}

	// Partition tweets by platform in one pass over the packed columns,
	// counting distinct users by interned handle.
	platIdx := map[platform.Platform][]uint32{}
	tweetUsers := map[platform.Platform]map[uint32]struct{}{}
	for i, n := 0, s.tweets.len(); i < n; i++ {
		p := platform.Platform(s.tweets.platAt(i))
		platIdx[p] = append(platIdx[p], uint32(i))
		set := tweetUsers[p]
		if set == nil {
			set = map[uint32]struct{}{}
			tweetUsers[p] = set
		}
		set[s.tweets.userHandle(i)] = struct{}{}
	}
	for p, idx := range platIdx {
		sn.tweetsByPlat[p] = TweetList{c: tweets.c, idx: idx}
	}

	msgCount := map[platform.Platform]int{}
	msgUsers := map[platform.Platform]map[uint64]struct{}{}
	for i, n := 0, s.msgs.len(); i < n; i++ {
		p := platform.Platform(s.msgs.platAt(i))
		msgCount[p]++
		set := msgUsers[p]
		if set == nil {
			set = map[uint64]struct{}{}
			msgUsers[p] = set
		}
		set[s.msgs.authorKey(i)] = struct{}{}
	}

	// The rebuild already partitioned the sorted refs by platform; the
	// partitions share groupViews with sn.Groups. Joined refs are gathered
	// off the flag column directly — no record materialization.
	joinedRefs := map[platform.Platform][]groupRef{}
	for p, refs := range s.groups.byPlat {
		sn.groupsByPlat[p] = GroupList{views: groupViews, refs: refs}
		for _, r := range refs {
			v := &groupViews[r>>stripeShift]
			if v.flags[uint32(r)&stripeMask]&gfJoined != 0 {
				joinedRefs[p] = append(joinedRefs[p], r)
			}
		}
	}
	for p, refs := range joinedRefs {
		sn.joinedByPlat[p] = GroupList{views: groupViews, refs: refs}
	}
	for _, p := range platform.All {
		sn.counts[p] = Counts{
			Tweets:       len(platIdx[p]),
			TweetUsers:   len(tweetUsers[p]),
			GroupURLs:    sn.groupsByPlat[p].Len(),
			JoinedGroups: sn.joinedByPlat[p].Len(),
			Messages:     msgCount[p],
			MessageUsers: len(msgUsers[p]),
		}
	}
	return sn
}

// TweetsOf returns one platform's tweets, in collection order.
func (sn *Snapshot) TweetsOf(p platform.Platform) TweetList {
	if l, ok := sn.tweetsByPlat[p]; ok {
		return l
	}
	return TweetList{c: sn.Tweets.c, idx: []uint32{}}
}

// GroupsOf returns one platform's groups, sorted by code. The zero
// GroupList of an absent platform has Len 0.
func (sn *Snapshot) GroupsOf(p platform.Platform) GroupList {
	return sn.groupsByPlat[p]
}

// JoinedOf returns the joined groups of one platform, sorted by code.
func (sn *Snapshot) JoinedOf(p platform.Platform) GroupList {
	return sn.joinedByPlat[p]
}

// CountsFor returns the precomputed Table 2 row of one platform.
func (sn *Snapshot) CountsFor(p platform.Platform) Counts { return sn.counts[p] }
