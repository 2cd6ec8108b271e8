package campaign_test

import (
	"flag"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// parse binds a fresh flag set, parses args and returns the spec.
func parse(t testing.TB, args []string) campaign.Spec {
	t.Helper()
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := campaign.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	s, err := f.Spec()
	if err != nil {
		t.Fatalf("resolving %q: %v", args, err)
	}
	return s
}

func TestBindDefaults(t *testing.T) {
	got := parse(t, nil)
	want := campaign.Spec{Seed: 1, Sites: 50000, Workers: 16, ChaosSeed: 1}
	if got != want {
		t.Fatalf("no flags: got %+v, want %+v", got, want)
	}
}

// TestBindRetries pins the one translation between the command line's
// -retries (extra attempts, 0 disables) and the crawler's try budget.
func TestBindRetries(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		attempts int
	}{
		{nil, 3},
		{[]string{"-retries", "0"}, 1},
		{[]string{"-retries", "-3"}, 1},
		{[]string{"-retries", "1"}, 2},
		{[]string{"-retries", "2"}, 3},
		{[]string{"-retries", "4"}, 5},
	} {
		s := parse(t, tc.args)
		if got := s.Attempts(); got != tc.attempts {
			t.Errorf("%q: Attempts() = %d, want %d", tc.args, got, tc.attempts)
		}
		if got := s.Crawler(crawler.Config{}).Attempts; got != tc.attempts {
			t.Errorf("%q: Crawler().Attempts = %d, want %d", tc.args, got, tc.attempts)
		}
	}
}

func TestBindDateAndBudget(t *testing.T) {
	s := parse(t, []string{"-date", "2024-01-15", "-vantage", "us", "-visit-budget-ms", "30000"})
	if want := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC); s.Start != want {
		t.Errorf("-date: Start = %v, want %v", s.Start, want)
	}
	if s.Vantage != "us" || s.VisitBudget != 30*time.Second {
		t.Errorf("vantage %q, budget %v", s.Vantage, s.VisitBudget)
	}

	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	f := campaign.Bind(fs)
	if err := fs.Parse([]string{"-date", "15/01/2024"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Spec(); err == nil {
		t.Error("malformed -date accepted")
	}
}

func TestArgsRefusesUnexpressible(t *testing.T) {
	for name, s := range map[string]campaign.Spec{
		"world config":   {WorldConfig: &webworld.Config{Seed: 1, NumSites: 10}},
		"sub-day start":  {Start: time.Date(2024, 1, 15, 6, 0, 0, 0, time.UTC)},
		"non-UTC start":  {Start: time.Date(2024, 1, 15, 0, 0, 0, 0, time.FixedZone("CET", 3600))},
		"sub-ms budget":  {VisitBudget: 1500 * time.Microsecond},
		"monotonic date": {Start: time.Now()},
	} {
		if args, err := s.Args(); err == nil {
			t.Errorf("%s: Args() = %q, want an error", name, args)
		}
	}
}

// randomSpec draws a spec every field of which a flag can carry.
func randomSpec(r *rand.Rand) campaign.Spec {
	s := campaign.Spec{
		Seed:        r.Uint64(),
		Sites:       r.IntN(100000),
		Workers:     r.IntN(64),
		Enforce:     r.IntN(2) == 0,
		Chaos:       r.IntN(2) == 0,
		ChaosSeed:   r.Uint64(),
		Retries:     r.IntN(7) - 1,
		Vantage:     []string{"", "eu", "us"}[r.IntN(3)],
		VisitBudget: time.Duration(r.IntN(3)*r.IntN(120000)) * time.Millisecond,
	}
	if r.IntN(2) == 0 {
		s.Start = time.Date(2023+r.IntN(3), time.Month(1+r.IntN(12)), 1+r.IntN(28), 0, 0, 0, 0, time.UTC)
	}
	return s
}

// TestArgsRoundTrip is the forwarding property: parsing Args(s) with a
// fresh Bind gives back s.
func TestArgsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		s := randomSpec(r)
		args, err := s.Args()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got := parse(t, args); got != s {
			t.Fatalf("round trip of %+v through %q gave %+v", s, args, got)
		}
	}
}

func FuzzSpecArgs(f *testing.F) {
	f.Add(uint64(1), 50000, 16, uint8(0), 0, uint64(1), 0, uint32(0))
	f.Add(uint64(9), 120, 4, uint8(7), 20000, uint64(5), -1, uint32(30000))
	f.Add(uint64(3), 300, 1, uint8(2), 100, uint64(4), 4, uint32(1))
	f.Fuzz(func(t *testing.T, seed uint64, sites, workers int, bits uint8, day int, chaosSeed uint64, retries int, budgetMS uint32) {
		s := campaign.Spec{
			Seed: seed, Sites: sites, Workers: workers,
			Enforce: bits&1 != 0, Chaos: bits&2 != 0,
			Vantage:     []string{"", "eu", "us", "eu"}[bits>>2&3],
			ChaosSeed:   chaosSeed,
			Retries:     max(retries, -1),
			VisitBudget: time.Duration(budgetMS) * time.Millisecond,
		}
		if day != 0 {
			s.Start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day%100000)
		}
		args, err := s.Args()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		for _, a := range args {
			if !strings.HasPrefix(a, "-") {
				t.Fatalf("argument %q is not a flag", a)
			}
		}
		if got := parse(t, args); got != s {
			t.Fatalf("round trip of %+v through %q gave %+v", s, args, got)
		}
	})
}
