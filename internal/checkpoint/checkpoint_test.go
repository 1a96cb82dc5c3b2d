package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleManifest populates every field, so round-trip and corruption tests
// exercise the full surface.
func sampleManifest() *Manifest {
	return &Manifest{
		Version:               Version,
		OptionsHash:           "a8f5f167f44f4964e6c998dee827110c",
		Options:               json.RawMessage(`{"Seed":42,"Scale":0.01,"Days":3}`),
		Seq:                   7,
		Day:                   2,
		Step:                  "drain",
		ClockUnixNano:         1586304000000000000,
		PublishedUpToUnixNano: 1586300400000000000,
		Logs: map[string]LogState{
			"log.tweets.jsonl": {Bytes: 81235, Records: 412},
			"log.events.jsonl": {Bytes: 932, Records: 14},
		},
		Collector: CollectorState{
			SinceIDs: map[string]uint64{"chat.whatsapp.com": 99182, "t.me": 88231},
			SocialID: 123,
			Stats:    map[string]int64{"search_tweets": 310, "stream_tweets": 102},
		},
		MonitorStats: map[string]int64{"probes": 512, "alive_probes": 488},
		Joiner: JoinerState{
			Joined:    map[string][]string{"telegram": {"abc", "def"}},
			WACursor:  3,
			WAAccount: 1,
			Stats:     map[string]int64{"attempted": 5, "joined": 2},
		},
		Twitter: TwitterState{RateTokens: 17.5, RateLastFillUnixNano: 1586303999000000000, ReqSeq: 4412},
		Accounts: map[string][]AccountState{
			"whatsapp": {{Name: "wa-0", Banned: true, Joined: []AccountJoin{{Code: "abc", AtUnixNano: 1}}}},
			"telegram": {{Name: "tg-0", Budget: 3.25, LastRefillUnixNano: 2}},
		},
		FaultEpoch:  19,
		FaultCounts: map[string]int64{"server-error": 12, "timeout": 3},
		Breakers:    map[string]map[string]int64{"twitter": {"opens": 1, "closes": 1}},
		Policies:    map[string]map[string]int64{"collector": {"attempts": 900, "retries": 12}},
	}
}

// encode wraps m in a valid checksum envelope, the way Write stores it.
func encode(t testing.TB, m *Manifest) []byte {
	t.Helper()
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{Checksum: hex.EncodeToString(sum[:]), Manifest: payload})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleManifest()
	if err := Write(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWriteReplacesAtomically overwrites an existing manifest and checks
// no temp file debris survives a successful write.
func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	first := sampleManifest()
	if err := Write(dir, first); err != nil {
		t.Fatal(err)
	}
	second := sampleManifest()
	second.Seq, second.Step = 8, "monitor"
	if err := Write(dir, second); err != nil {
		t.Fatal(err)
	}
	got, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 8 || got.Step != "monitor" {
		t.Errorf("read seq=%d step=%q after overwrite, want 8/monitor", got.Seq, got.Step)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != ManifestFile {
			t.Errorf("leftover file %q after Write", e.Name())
		}
	}
}

// TestDecodeRejectsTruncation cuts the stored envelope at every length and
// requires a clear ErrCorrupt, never a silently partial manifest.
func TestDecodeRejectsTruncation(t *testing.T) {
	data := encode(t, sampleManifest())
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode(data[:%d]) = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecodeRejectsBitFlips flips one bit in every byte of the stored
// envelope. The payload is covered by the checksum and the checksum by its
// own syntax, so no single flip may yield a valid manifest.
func TestDecodeRejectsBitFlips(t *testing.T) {
	data := encode(t, sampleManifest())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d (%q): err = %v, want ErrCorrupt", i, data[i], err)
		}
	}
}

// TestDecodeRejectsSplicedPayload keeps a valid checksum but swaps in a
// different (well-formed) payload: the checksum mismatch must be caught.
func TestDecodeRejectsSplicedPayload(t *testing.T) {
	good := sampleManifest()
	payload, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	tampered := sampleManifest()
	tampered.Day = 0 // an attacker-or-bitrot rewind
	spliced, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(envelope{Checksum: hex.EncodeToString(sum[:]), Manifest: spliced})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("spliced payload: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	for _, v := range []int{Version - 1, Version + 1} {
		m := sampleManifest()
		m.Version = v
		if _, err := Decode(encode(t, m)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: err = %v, want ErrCorrupt", v, err)
		}
	}
}

func TestDecodeRejectsMissingStep(t *testing.T) {
	m := sampleManifest()
	m.Step = ""
	if _, err := Decode(encode(t, m)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing step: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of truncated file: err = %v, want ErrCorrupt", err)
	}
}

// FuzzManifestDecode fuzzes the resume entry point. Invariants: Decode
// either fails wrapping ErrCorrupt (a clear rejection) or returns a
// manifest that survives a re-encode/re-decode round trip byte-exactly —
// there is no third outcome where corrupt input yields usable state.
func FuzzManifestDecode(f *testing.F) {
	valid := encode(f, sampleManifest())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"checksum":"00","manifest":{}}`))
	f.Add([]byte(`{"checksum":"zz","manifest":{"version":1,"step":"drain"}}`))
	minimal, _ := json.Marshal(&Manifest{Version: Version, Step: "init"})
	sum := sha256.Sum256(minimal)
	env, _ := json.Marshal(envelope{Checksum: hex.EncodeToString(sum[:]), Manifest: minimal})
	f.Add(env)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		payload, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		sum := sha256.Sum256(payload)
		env, err := json.Marshal(envelope{Checksum: hex.EncodeToString(sum[:]), Manifest: payload})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Decode(env)
		if err != nil {
			t.Fatalf("re-decoding accepted manifest: %v", err)
		}
		payload2, err := json.Marshal(m2)
		if err != nil {
			t.Fatal(err)
		}
		if string(payload2) != string(payload) {
			t.Fatalf("round trip not stable:\nfirst  %s\nsecond %s", payload, payload2)
		}
	})
}
