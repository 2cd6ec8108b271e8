package orchestrator_test

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/orchestrator"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// TestExecLauncherRefusesOnlyUnexpressible: the exec launcher forwards
// every campaign a topics-crawl command line can carry and refuses the
// rest before spawning anything. The binary does not exist, so an
// accepted campaign fails at exec time instead — proof it got past the
// argv.
func TestExecLauncherRefusesOnlyUnexpressible(t *testing.T) {
	l := &orchestrator.ExecLauncher{Bin: filepath.Join(t.TempDir(), "no-such-topics-crawl")}
	shard := orchestrator.ShardSpec{Index: 0, Count: 1, FromRank: 1, ToRank: 10}
	start := func(s campaign.Spec) error {
		_, err := l.Start(context.Background(), &orchestrator.Campaign{Spec: s, OutputPath: "crawl.jsonl"}, shard, 0, false)
		return err
	}
	day := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	for name, s := range map[string]campaign.Spec{
		"defaults":   {Seed: 1, Sites: 10},
		"full":       {Seed: 9, Sites: 10, Workers: 4, Enforce: true, Start: day, Vantage: "us", Chaos: true, ChaosSeed: 5, Retries: 4, VisitBudget: 30 * time.Second},
		"no retries": {Seed: 1, Sites: 10, Retries: -1, Vantage: "eu"},
	} {
		if err := start(s); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: want an exec failure past the argv, got %v", name, err)
		}
	}
	for name, s := range map[string]campaign.Spec{
		"world config":  {WorldConfig: &webworld.Config{Seed: 1, NumSites: 10}},
		"sub-day start": {Seed: 1, Sites: 10, Start: day.Add(6 * time.Hour)},
	} {
		if err := start(s); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: want a refusal before exec, got %v", name, err)
		}
	}
}
