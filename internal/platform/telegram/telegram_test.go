package telegram

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

// history pages backwards through a chat's entire history (since
// creation) and returns every message.
func history(ctx context.Context, c *Client, code string) ([]Message, error) {
	var out []Message
	p := c.HistoryPager(code)
	for !p.Done() {
		page, err := p.Next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, page...)
	}
	return out, nil
}

type fixture struct {
	world *simworld.World
	clock *simclock.Sim
	srv   *httptest.Server
	cfg   ServiceConfig
}

func newFixture(t *testing.T, cfg ServiceConfig) *fixture {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(4, 0.01))
	clock := simclock.New(w.Cfg.Start)
	clock.Advance(10 * 24 * time.Hour)
	svc := NewService(w, clock, cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return &fixture{world: w, clock: clock, srv: srv, cfg: cfg}
}

func (f *fixture) pick(t *testing.T, pred func(*simworld.Group) bool) *simworld.Group {
	t.Helper()
	for _, g := range f.world.Groups[platform.Telegram] {
		if pred(g) {
			return g
		}
	}
	t.Fatal("no matching Telegram group in fixture")
	return nil
}

func (f *fixture) alive(g *simworld.Group) bool {
	return f.world.AliveAt(g, f.clock.Now().Add(48*time.Hour)) &&
		g.FirstShareAt.Before(f.clock.Now())
}

func TestPreviewScrape(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && !g.IsChannel })
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Alive || p.Title != g.Title || p.IsChannel {
		t.Fatalf("preview wrong: %+v (want title %q)", p, g.Title)
	}
	now := f.clock.Now()
	if p.Members != f.world.MembersAt(g, now) || p.Online != f.world.OnlineAt(g, now) {
		t.Fatalf("counts wrong: %+v", p)
	}
}

func TestPreviewChannelFlag(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && g.IsChannel })
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsChannel {
		t.Fatal("channel not flagged")
	}
}

func TestPreviewDead(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return !g.RevokedAt.IsZero() && g.RevokedAt.Before(f.clock.Now())
	})
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alive {
		t.Fatal("dead invite reported alive")
	}
}

func TestJoinAndHistorySinceCreation(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		// A young group so the full history is cheap to page.
		return f.alive(g) && f.clock.Now().Sub(g.CreatedAt) < 12*24*time.Hour
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CreatedAt.Equal(g.CreatedAt.Truncate(time.Millisecond)) {
		t.Fatalf("creation date %v, want %v", info.CreatedAt, g.CreatedAt)
	}
	msgs, err := history(ctx, c, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	want := f.world.Messages(g, g.CreatedAt, f.clock.Now())
	// History pagination can drop same-millisecond boundary collisions;
	// allow a sliver of slack.
	if len(msgs) < len(want)-3 || len(msgs) > len(want) {
		t.Fatalf("history %d messages, world has %d", len(msgs), len(want))
	}
	// Unlike WhatsApp, pre-"join" history IS visible.
	pre := 0
	for _, m := range msgs {
		if m.SentAt.Before(f.clock.Now().Add(-24 * time.Hour)) {
			pre++
		}
	}
	if len(want) > 20 && pre == 0 {
		t.Fatal("no pre-join history returned")
	}
}

func TestJoinExpired(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return !g.RevokedAt.IsZero() && g.RevokedAt.Before(f.clock.Now())
	})
	c := NewClient(f.srv.URL, "acct")
	if _, err := c.Join(context.Background(), g.Code); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestParticipantsHiddenVsVisible(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	ctx := context.Background()
	c := NewClient(f.srv.URL, "acct")

	hidden := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && g.HiddenMembers })
	if _, err := c.Join(ctx, hidden.Code); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Participants(ctx, hidden.Code); !errors.Is(err, ErrHiddenList) {
		t.Fatalf("hidden list err = %v, want ErrHiddenList", err)
	}

	visible := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && !g.HiddenMembers })
	if _, err := c.Join(ctx, visible.Code); err != nil {
		t.Fatal(err)
	}
	parts, err := c.Participants(ctx, visible.Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatal("no participants")
	}
	withPhone := 0
	for _, p := range parts {
		if p.Phone != "" {
			withPhone++
		}
	}
	// Phone opt-in is ~0.68%: most participants must hide their phone.
	if frac := float64(withPhone) / float64(len(parts)); frac > 0.05 {
		t.Fatalf("%.3f of participants expose phones, want <0.05", frac)
	}
}

func TestUnauthenticatedAPI(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	c := NewClient(f.srv.URL, "")
	if _, err := c.Join(context.Background(), "whatever"); err == nil {
		t.Fatal("missing account should fail")
	}
}

func TestNotMemberHistory(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	if _, err := history(context.Background(), c, g.Code); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
}

func TestFloodWait(t *testing.T) {
	f := newFixture(t, ServiceConfig{APIBudget: 3, APIWindow: time.Minute, FloodWaitSeconds: 30})
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	var floodErr error
	for i := 0; i < 10; i++ {
		if _, err := c.Info(ctx, g.Code); err != nil {
			floodErr = err
			break
		}
	}
	if !errors.Is(floodErr, ErrFloodWait) {
		t.Fatalf("err = %v, want ErrFloodWait", floodErr)
	}
	// Advancing virtual time refills the budget.
	f.clock.Advance(2 * time.Minute)
	if _, err := c.Info(ctx, g.Code); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestHistoryPagerResumesAcrossFloodWait(t *testing.T) {
	f := newFixture(t, ServiceConfig{APIBudget: 5, APIWindow: time.Minute, FloodWaitSeconds: 5})
	g := f.pick(t, func(g *simworld.Group) bool {
		if !f.alive(g) {
			return false
		}
		n := len(f.world.Messages(g, g.CreatedAt, f.clock.Now()))
		return n > 1500 && n < 30000 // needs multiple pages
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	pager := c.HistoryPager(g.Code)
	var got int
	for !pager.Done() {
		page, err := pager.Next(ctx)
		if errors.Is(err, ErrFloodWait) {
			f.clock.Advance(time.Minute)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got += len(page)
	}
	want := len(f.world.Messages(g, g.CreatedAt, f.clock.Now()))
	if got < want-10 || got > want {
		t.Fatalf("paged %d messages, world has %d", got, want)
	}
}
