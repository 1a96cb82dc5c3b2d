package store

import (
	"reflect"
	"testing"
	"time"

	"msgscope/internal/platform"
)

var snapStart = time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)

func buildSnapshotStore() *Store {
	s := New()
	at := func(day, h int) time.Time { return snapStart.Add(time.Duration(day*24+h) * time.Hour) }
	s.AddTweet(TweetRecord{ID: 1, UserID: "u1", CreatedAt: at(0, 3), Platform: platform.WhatsApp, GroupCode: "wa1"})
	s.AddTweet(TweetRecord{ID: 2, UserID: "u1", CreatedAt: at(1, 4), Platform: platform.WhatsApp, GroupCode: "wa2"})
	s.AddTweet(TweetRecord{ID: 3, UserID: "u2", CreatedAt: at(1, 5), Platform: platform.Telegram, GroupCode: "tg1"})
	s.AddTweet(TweetRecord{ID: 4, UserID: "u3", CreatedAt: at(9, 1), Platform: platform.Discord, GroupCode: "dc1"}) // outside 3-day window
	s.AddControl(ControlRecord{ID: 9, UserID: "c1", CreatedAt: at(0, 1)})
	s.MarkJoined(platform.WhatsApp, "wa1", func(g *GroupRecord) { g.MemberCount = 10 })
	s.AddMessage(MessageRecord{Platform: platform.WhatsApp, GroupCode: "wa1", AuthorKey: 7, SentAt: at(1, 1), Type: platform.Text})
	s.AddMessage(MessageRecord{Platform: platform.WhatsApp, GroupCode: "wa1", AuthorKey: 8, SentAt: at(1, 2), Type: platform.Text})
	s.UpsertUser(UserRecord{Platform: platform.WhatsApp, Key: 7, PhoneHash: "h7"})
	s.UpsertUser(UserRecord{Platform: platform.WhatsApp, Key: 8, PhoneHash: "h8"})
	return s
}

func TestSnapshotMatchesStore(t *testing.T) {
	s := buildSnapshotStore()
	sn := s.Snapshot(snapStart, 3)

	if sn.Tweets.Len() != 4 || sn.Control.Len() != 1 || sn.Messages.Len() != 2 {
		t.Fatalf("flat slices wrong: %d tweets %d control %d msgs",
			sn.Tweets.Len(), sn.Control.Len(), sn.Messages.Len())
	}
	groups := s.Groups()
	if sn.Groups.Len() != groups.Len() {
		t.Fatalf("snapshot has %d groups, store %d", sn.Groups.Len(), groups.Len())
	}
	for i := 0; i < groups.Len(); i++ {
		if !reflect.DeepEqual(sn.Groups.Record(i), groups.Record(i)) {
			t.Fatalf("group order diverges at %d", i)
		}
	}
	for _, p := range platform.All {
		want := s.GroupsOf(p)
		got := sn.GroupsOf(p)
		if want.Len() != got.Len() {
			t.Fatalf("%v: GroupsOf %d vs %d", p, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !reflect.DeepEqual(want.Record(i), got.Record(i)) {
				t.Fatalf("%v: GroupsOf order diverges at %d", p, i)
			}
		}
		if sn.CountsFor(p) != s.CountsFor(p) {
			t.Fatalf("%v: counts %+v vs %+v", p, sn.CountsFor(p), s.CountsFor(p))
		}
	}
	if n := sn.JoinedOf(platform.WhatsApp).Len(); n != 1 {
		t.Fatalf("joined WhatsApp groups = %d, want 1", n)
	}
	if n := sn.JoinedOf(platform.Discord).Len(); n != 0 {
		t.Fatalf("joined Discord groups = %d, want 0", n)
	}
	var inPlat int
	for _, p := range platform.All {
		inPlat += sn.TweetsOf(p).Len()
	}
	if inPlat != sn.Tweets.Len() {
		t.Fatalf("per-platform tweet partitions cover %d of %d", inPlat, sn.Tweets.Len())
	}
}

func TestGroupRecordsAreCallerOwned(t *testing.T) {
	s := buildSnapshotStore()
	s.AddObservation(platform.WhatsApp, "wa1", Observation{At: snapStart, Alive: true, Members: 5})

	// Record materializes a fresh observation slice each call: a caller may
	// scribble on it without disturbing the store.
	list := s.GroupsOf(platform.WhatsApp)
	var idx = -1
	for i := 0; i < list.Len(); i++ {
		if list.At(i).Code == "wa1" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("wa1 missing")
	}
	rec := list.Record(idx)
	if len(rec.Observations) != 1 {
		t.Fatalf("wa1 has %d observations, want 1", len(rec.Observations))
	}
	rec.Observations[0].Members = 999
	if again := list.Record(idx); again.Observations[0].Members != 5 {
		t.Fatalf("caller mutation leaked into the store: %+v", again.Observations[0])
	}
	if g, _ := s.Group(platform.WhatsApp, "wa1"); g.Observations[0].Members != 5 {
		t.Fatalf("caller mutation leaked into the store: %+v", g.Observations[0])
	}

	// Where carves a sub-view with its own ref slice; reordering the source
	// list's records is impossible (views are read-only), and a second
	// Groups() call serves the same deterministic order.
	a, b := s.Groups(), s.Groups()
	if a.Len() != b.Len() {
		t.Fatal("group view length unstable")
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Code != b.At(i).Code {
			t.Fatalf("group view order unstable at %d", i)
		}
	}
}

func TestGroupIndexInvalidation(t *testing.T) {
	s := buildSnapshotStore()
	before := s.GroupsOf(platform.Telegram).Len()
	s.AddTweet(TweetRecord{ID: 99, UserID: "u9", CreatedAt: snapStart, Platform: platform.Telegram, GroupCode: "tg-new"})
	after := s.GroupsOf(platform.Telegram)
	if after.Len() != before+1 {
		t.Fatalf("index stale after new group: %d, want %d", after.Len(), before+1)
	}
	u := len(s.Users())
	s.UpsertUser(UserRecord{Platform: platform.Discord, Key: 42})
	if len(s.Users()) != u+1 {
		t.Fatal("user index stale after upsert")
	}
}
