package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"msgscope"
	"msgscope/internal/analysis/lda"
	"msgscope/internal/core"
	"msgscope/internal/join"
)

// workload is one study shape the benchmark runs. README.md gives the
// reason each exists and which layers it stresses.
type workload struct {
	name  string
	scale float64
	// options builds the study options for one study seed and scale.
	// checkpointDir is a fresh per-study directory; workloads that do not
	// checkpoint ignore it.
	options func(seed uint64, scale float64, checkpointDir string) msgscope.Options
	// restore times msgscope.Resume on the finished checkpoint.
	restore bool
}

const faultRate = 0.1

func discoveryOptions(seed uint64, scale float64) msgscope.Options {
	return msgscope.Options{Seed: seed, Scale: scale, Days: 38}
}

func joinCollectOptions(seed uint64, scale float64) msgscope.Options {
	return msgscope.Options{
		Seed: seed, Scale: scale, Days: 10,
		JoinWhatsApp: 416, JoinTelegram: 100, JoinDiscord: 100,
		GenerateMessageText: true, MaxMessagesPerGroup: 10000,
	}
}

var workloads = []workload{
	{
		name:  "discovery-38d",
		scale: 0.03,
		options: func(seed uint64, scale float64, _ string) msgscope.Options {
			return discoveryOptions(seed, scale)
		},
	},
	{
		name:  "join-collect",
		scale: 0.02,
		options: func(seed uint64, scale float64, _ string) msgscope.Options {
			o := joinCollectOptions(seed, scale)
			// Serial collection: the message bodies are drawn from one
			// shared generator per platform in the order history requests
			// arrive, so only one request at a time gives reproducible
			// bodies (README.md, "Per-study deadline and known defects").
			o.CollectWorkers = 1
			return o
		},
	},
	{
		// join-collect with the default collection fan-out. It reproduces
		// the message-body defect: its runs report "correct": false until
		// the bodies no longer depend on request order.
		name:  "join-collect-parallel",
		scale: 0.02,
		options: func(seed uint64, scale float64, _ string) msgscope.Options {
			return joinCollectOptions(seed, scale)
		},
	},
	{
		name:  "durable-faulted",
		scale: 0.02,
		options: func(seed uint64, scale float64, checkpointDir string) msgscope.Options {
			o := discoveryOptions(seed, scale)
			o.CheckpointDir = checkpointDir
			// Small enough that every record family seals segments.
			o.MemBudget = 4 << 20
			// The same rates as `msgscope run -fault-rate 0.1`.
			o.Faults = &msgscope.FaultPlan{
				Seed:          seed,
				ErrorRate:     faultRate,
				TimeoutRate:   faultRate / 4,
				MalformedRate: faultRate / 4,
			}
			return o
		},
		restore: true,
	},
}

// studySeconds is the nominal measured time of one study.
const studySeconds = 7.5

// studies is how many studies an untraced run holds when asked to
// measure for seconds: four at 30 seconds, so the median resists one
// study whose joined groups carry an outsized message history. The count
// depends on the flag alone, never on how fast the studies went, so every
// build measures the same worlds.
func studies(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/studySeconds)))
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// studySeed derives the i-th study seed of a run from the run's seed.
// Study 0 uses the run seed itself, so `msgscope run -seed N` reproduces
// it.
func studySeed(runSeed uint64, i int) uint64 {
	return runSeed + uint64(i)*0x9E3779B97F4A7C15
}

// coreConfig maps msgscope.Options onto core.Config the way msgscope.Run
// does. The driver calls core directly so it can time each layer; the
// reference check (msgscope.Run on a workload's options must give the
// driver's digest) proves the mapping matches the product's.
func coreConfig(o msgscope.Options) (core.Config, error) {
	sampler, err := lda.ParseSampler(o.LDASampler)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Seed:                  o.Seed,
		Scale:                 o.Scale,
		Days:                  o.Days,
		MaxMessagesPerGroup:   o.MaxMessagesPerGroup,
		GenerateMessageText:   o.GenerateMessageText,
		MonitorEveryDays:      o.MonitorEveryDays,
		SearchEveryHours:      o.SearchEveryHours,
		JoinTitleKeywords:     o.TopicKeywords,
		EnableSocialDiscovery: o.SocialDiscovery,
		LDASampler:            sampler,
		SearchWorkers:         o.SearchWorkers,
		CollectWorkers:        o.CollectWorkers,
		Faults:                o.Faults,
		CheckpointDir:         o.CheckpointDir,
		MemBudget:             o.MemBudget,
		SpillDir:              o.SpillDir,
		Join: join.Targets{
			WhatsApp: o.JoinWhatsApp,
			Telegram: o.JoinTelegram,
			Discord:  o.JoinDiscord,
		},
	}
	if o.CheckpointDir != "" {
		// msgscope.Resume re-derives this hash from the options stored in
		// the manifest and refuses a checkpoint whose hash differs, so a
		// drift here fails the durable-faulted restore.
		hashed := o
		hashed.CheckpointDir, hashed.SpillDir = "", ""
		hashed.SearchWorkers, hashed.CollectWorkers = 0, 0
		hashed.ProfilePhases = false
		hashed.MemBudget = 0
		b, err := json.Marshal(hashed)
		if err != nil {
			return core.Config{}, err
		}
		sum := sha256.Sum256(b)
		cfg.OptionsHash = hex.EncodeToString(sum[:])
		if cfg.OptionsPayload, err = json.Marshal(o); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}
