package telegram

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"msgscope/internal/faults"
	"msgscope/internal/httpx"
	"msgscope/internal/ids"
	"msgscope/internal/jsonx"
	"msgscope/internal/retry"
)

// Preview is the metadata scraped from a t.me web page without joining:
// title, member/online counts, and whether the chat is a channel.
type Preview struct {
	Alive     bool
	Title     string
	Members   int
	Online    int
	IsChannel bool
}

// Sentinel errors.
var (
	ErrExpired    = errors.New("telegram: invite expired or chat deleted")
	ErrNotFound   = errors.New("telegram: not found")
	ErrHiddenList = errors.New("telegram: member list hidden by admins")
	ErrNotMember  = errors.New("telegram: not a member")
	ErrFloodWait  = errors.New("telegram: FLOOD_WAIT")
)

// Client scrapes web previews and drives the API for one account.
type Client struct {
	BaseURL string
	Account string
	HTTP    *http.Client
	// Retry is the shared retry policy: FLOOD_WAITs wait out the
	// advertised retry_after through the policy's Waiter, transient
	// failures back off, sentinels surface immediately.
	Retry *retry.Policy
	// interner deduplicates per-message vocabulary (message types,
	// member names) for this client's lifetime.
	interner *ids.Interner
}

// NewClient returns a client bound to an account name. The retry jitter
// seed derives from the account so accounts decorrelate.
func NewClient(baseURL, account string) *Client {
	return &Client{
		BaseURL:  strings.TrimRight(baseURL, "/"),
		Account:  account,
		HTTP:     httpx.NewClient(),
		Retry:    retry.New(accountSeed(account)),
		interner: ids.NewInterner(),
	}
}

// accountSeed hashes the account name (FNV-1a) into a jitter seed.
func accountSeed(account string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(account); i++ {
		h ^= uint64(account[i])
		h *= 1099511628211
	}
	return h
}

// ProbePreview fetches and scrapes the public web preview.
func (c *Client) ProbePreview(ctx context.Context, code string) (Preview, error) {
	path := "/web/" + code
	var p Preview
	err := c.Retry.Do("GET "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			httpx.Drain(resp)
			return retry.Fail(ErrNotFound)
		case resp.StatusCode == http.StatusOK:
			body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if err != nil {
				return retry.Retry(err)
			}
			p, err = scrapePreview(string(body))
			if err != nil {
				// A half-rendered page (e.g. injected truncation) is
				// transient; the next attempt re-fetches.
				return retry.Retry(err)
			}
			return retry.Ok()
		case resp.StatusCode == 420:
			return retry.Throttled(floodWaitOf(resp), ErrFloodWait)
		case resp.StatusCode >= 500:
			httpx.Drain(resp)
			return retry.Retry(fmt.Errorf("telegram: preview status %d", resp.StatusCode))
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			return retry.Fail(fmt.Errorf("telegram: preview status %d: %s", resp.StatusCode, body))
		}
	})
	return p, err
}

func scrapePreview(page string) (Preview, error) {
	if strings.Contains(page, "tgme_page_invalid") {
		return Preview{Alive: false}, nil
	}
	p := Preview{Alive: true}
	title, ok := htmlAttr(page, `property="og:title"`, "content")
	if !ok {
		return Preview{}, fmt.Errorf("telegram: preview missing title")
	}
	p.Title = title
	if v, ok := htmlAttr(page, `class="tgme_page"`, "data-kind"); ok {
		p.IsChannel = v == "channel"
	}
	if v, ok := htmlAttr(page, `class="tgme_page"`, "data-members"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return Preview{}, fmt.Errorf("telegram: bad member count %q", v)
		}
		p.Members = n
	}
	if v, ok := htmlAttr(page, `class="tgme_page"`, "data-online"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return Preview{}, fmt.Errorf("telegram: bad online count %q", v)
		}
		p.Online = n
	}
	return p, nil
}

// htmlAttr finds key="value" after the first occurrence of marker.
func htmlAttr(page, marker, key string) (string, bool) {
	i := strings.Index(page, marker)
	if i < 0 {
		return "", false
	}
	rest := page[i:]
	// Look in the surrounding tag and the preceding head section.
	if j := strings.Index(rest, key+`="`); j >= 0 {
		rest = rest[j+len(key)+2:]
		if k := strings.IndexByte(rest, '"'); k >= 0 {
			return unescape(rest[:k]), true
		}
	}
	// og:title has content after the property marker on the same tag.
	return "", false
}

// htmlUnescaper is hoisted to package scope: strings.NewReplacer builds
// a generic replacement trie on construction, which profiling showed as
// a per-probe allocation hotspot when it lived inside unescape.
var htmlUnescaper = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&#34;", `"`, "&#39;", "'")

func unescape(s string) string {
	return htmlUnescaper.Replace(s)
}

// floodWaitOf reads the advertised retry_after from a 420 body, draining
// and closing it (0 when absent so the policy falls back to its base pad).
func floodWaitOf(resp *http.Response) time.Duration {
	var e struct {
		RetryAfter float64 `json:"retry_after"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	httpx.Drain(resp)
	return time.Duration(e.RetryAfter * float64(time.Second))
}

// apiDoParse performs one authenticated API call against path through
// the shared retry policy, mapping Telegram error codes to sentinel
// errors. FLOOD_WAITs wait out the advertised retry_after; transient
// failures (transport errors, 5xx, undecodable bodies) back off; the
// retry key is the method + path, never the host (random test ports).
// On 200 the body is read into a pooled buffer and handed to parse;
// parse must not retain the slice (it is reused by other requests), and
// a parse error makes the attempt transient.
func (c *Client) apiDoParse(ctx context.Context, method, path string, parse func(body []byte) error) error {
	return c.Retry.Do(method+" "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		req.Header.Set("X-TG-Account", c.Account)
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		if resp.StatusCode == 420 {
			return retry.Throttled(floodWaitOf(resp), ErrFloodWait)
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			if parse == nil {
				io.Copy(io.Discard, resp.Body)
				return retry.Ok()
			}
			bp := jsonx.GetBuf()
			body, err := jsonx.ReadInto(bp, io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				jsonx.PutBuf(bp)
				return retry.Retry(fmt.Errorf("telegram: reading response: %w", err))
			}
			err = parse(body)
			jsonx.PutBuf(bp)
			if err != nil {
				return retry.Retry(fmt.Errorf("telegram: decoding response: %w", err))
			}
			return retry.Ok()
		case resp.StatusCode == http.StatusForbidden:
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			if e.Error == "CHAT_ADMIN_REQUIRED" {
				return retry.Fail(ErrHiddenList)
			}
			return retry.Fail(ErrNotMember)
		case resp.StatusCode == http.StatusBadRequest:
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			if strings.HasPrefix(e.Error, "INVITE_HASH") {
				return retry.Fail(ErrExpired)
			}
			return retry.Fail(fmt.Errorf("telegram: api error %s", e.Error))
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, resp.Body)
			return retry.Retry(fmt.Errorf("telegram: status %d", resp.StatusCode))
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return retry.Fail(fmt.Errorf("telegram: status %d: %s", resp.StatusCode, body))
		}
	})
}

// apiDo is the encoding/json convenience wrapper over apiDoParse for
// the cold endpoints (join, chat info).
func (c *Client) apiDo(ctx context.Context, method, path string, v any) error {
	if v == nil {
		return c.apiDoParse(ctx, method, path, nil)
	}
	return c.apiDoParse(ctx, method, path, func(body []byte) error {
		return json.Unmarshal(body, v)
	})
}

// Join joins a group or channel by its invite code or public name.
func (c *Client) Join(ctx context.Context, code string) (time.Time, error) {
	var out struct {
		JoinedAtMS int64 `json:"joined_at_ms"`
	}
	if err := c.apiDo(ctx, http.MethodPost, "/api/join/"+code, &out); err != nil {
		return time.Time{}, err
	}
	return time.UnixMilli(out.JoinedAtMS).UTC(), nil
}

// Message is one history message.
type Message struct {
	FromID uint64
	SentAt time.Time
	Type   string
	Text   string
}

// HistoryPager walks a chat's history backwards page by page. Its cursor
// survives FLOOD_WAIT errors, so the caller can wait (or, in simulation,
// advance the clock) and call Next again without losing position.
type HistoryPager struct {
	c      *Client
	code   string
	offset int64
	done   bool
}

// HistoryPager returns a pager over the chat's full history.
func (c *Client) HistoryPager(code string) *HistoryPager {
	return &HistoryPager{c: c, code: code}
}

// HistoryPagerAt returns a pager whose first page is anchored at until
// instead of the service's current clock. Collectors running concurrently
// advance virtual time (flood waits on other chats), so an unanchored pager
// would see a history window that depends on scheduling; an anchored one is
// a pure function of (chat, until).
func (c *Client) HistoryPagerAt(code string, until time.Time) *HistoryPager {
	return &HistoryPager{c: c, code: code, offset: until.UnixMilli()}
}

// Done reports whether the history is exhausted.
func (p *HistoryPager) Done() bool { return p.done }

// Next fetches one page (newest remaining first). It returns an empty page
// with Done()==true at the end of history.
func (p *HistoryPager) Next(ctx context.Context) ([]Message, error) {
	if p.done {
		return nil, nil
	}
	u := "/api/history/" + p.code + "?limit=1000"
	if p.offset != 0 {
		u += "&offset_date_ms=" + strconv.FormatInt(p.offset, 10)
	}
	var out []Message
	var next int64
	err := p.c.apiDoParse(ctx, http.MethodGet, u, func(body []byte) error {
		var perr error
		out, next, perr = parseHistoryPage(body, p.c.interner)
		return perr
	})
	if err != nil {
		return nil, err
	}
	if next == 0 {
		p.done = true
	} else {
		p.offset = next
	}
	return out, nil
}

// parseHistoryPage decodes one /api/history page. Message types are
// interned (a handful of distinct values across millions of messages);
// only text bodies are copied.
func parseHistoryPage(body []byte, in *ids.Interner) ([]Message, int64, error) {
	var d jsonx.Dec
	d.Reset(body)
	var msgs []Message
	var next int64
	err := d.Obj(func(key []byte) error {
		switch string(key) {
		case "messages":
			return d.Arr(func() error {
				var m Message
				var dateMS int64
				if err := d.Obj(func(k2 []byte) error {
					switch string(k2) {
					case "from_id":
						v, err := d.Uint()
						m.FromID = v
						return err
					case "date_ms":
						v, err := d.Int()
						dateMS = v
						return err
					case "type":
						b, err := d.StrBytes()
						if err != nil {
							return err
						}
						m.Type = in.InternBytes(b)
						return nil
					case "text":
						s, err := d.Str()
						m.Text = s
						return err
					}
					return d.Skip()
				}); err != nil {
					return err
				}
				m.SentAt = time.UnixMilli(dateMS).UTC()
				msgs = append(msgs, m)
				return nil
			})
		case "next_offset_date_ms":
			v, err := d.Int()
			next = v
			return err
		}
		return d.Skip()
	})
	if err != nil {
		return nil, 0, err
	}
	return msgs, next, d.End()
}

// Participant is one member profile; Phone is empty unless the user opted
// into phone visibility.
type Participant struct {
	ID    uint64
	Name  string
	Phone string
}

// Participants lists the chat's members; admins may hide the list, in
// which case ErrHiddenList is returned.
func (c *Client) Participants(ctx context.Context, code string) ([]Participant, error) {
	var ps []Participant
	err := c.apiDoParse(ctx, http.MethodGet, "/api/participants/"+code, func(body []byte) error {
		var d jsonx.Dec
		d.Reset(body)
		ps = ps[:0]
		err := d.Obj(func(key []byte) error {
			if string(key) != "participants" {
				return d.Skip()
			}
			return d.Arr(func() error {
				var p Participant
				if err := d.Obj(func(k2 []byte) error {
					switch string(k2) {
					case "id":
						v, err := d.Uint()
						p.ID = v
						return err
					case "name":
						// Names draw from a small syllable pool; intern.
						b, err := d.StrBytes()
						if err != nil {
							return err
						}
						p.Name = c.interner.InternBytes(b)
						return nil
					case "phone":
						s, err := d.Str()
						p.Phone = s
						return err
					}
					return d.Skip()
				}); err != nil {
					return err
				}
				ps = append(ps, p)
				return nil
			})
		})
		if err != nil {
			return err
		}
		return d.End()
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// ChatInfo is member-visible chat metadata.
type ChatInfo struct {
	Title         string
	CreatedAt     time.Time
	IsChannel     bool
	Members       int
	HiddenMembers bool
	CreatorID     int
}

// Info fetches member-visible chat metadata including the creation date
// and the creator's user ID.
func (c *Client) Info(ctx context.Context, code string) (ChatInfo, error) {
	var out struct {
		Title         string `json:"title"`
		CreatedMS     int64  `json:"created_ms"`
		IsChannel     bool   `json:"is_channel"`
		Members       int    `json:"members"`
		HiddenMembers bool   `json:"hidden_members"`
		CreatorID     int    `json:"creator_id"`
	}
	if err := c.apiDo(ctx, http.MethodGet, "/api/chatinfo/"+code, &out); err != nil {
		return ChatInfo{}, err
	}
	return ChatInfo{
		Title:         out.Title,
		CreatedAt:     time.UnixMilli(out.CreatedMS).UTC(),
		IsChannel:     out.IsChannel,
		Members:       out.Members,
		HiddenMembers: out.HiddenMembers,
		CreatorID:     out.CreatorID,
	}, nil
}
