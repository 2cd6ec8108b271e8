// Package campaign holds the deterministic parameters of a measurement
// campaign in one place. Every visit record is a pure function of a
// site's rank under these parameters, which is what lets a shard
// worker, an fsck repair recrawl or an exec-launched process reproduce
// the bytes of a single-process crawl. The library campaigns
// (topicscope.Campaign, orchestrator.Campaign and ShardCampaign,
// fsck.Campaign) all build their world, client and crawler settings
// from a Spec, and the campaign commands read and forward it through
// Bind and Args — the only mapping between flags and a Spec.
package campaign

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// defaultRetries is the extra-attempt budget of a Spec whose Retries is
// zero, and the -retries default.
const defaultRetries = crawler.DefaultAttempts - 1

// dateLayout is the -date format; a parsed date is a UTC midnight.
const dateLayout = "2006-01-02"

// Spec is the deterministic part of a campaign. Each field has one
// meaning, the library's; Bind and Args translate the command-line
// forms that differ (-retries, -date, -visit-budget-ms).
type Spec struct {
	// Seed drives world generation.
	Seed uint64
	// Sites is the rank-list length (0 = webworld's default, 50,000).
	Sites int
	// Workers is crawl parallelism (0 = the crawler's default). It
	// changes no record byte.
	Workers int
	// Enforce runs the healthy-gate ablation instead of the paper's
	// corrupted-gate configuration.
	Enforce bool
	// Start is the virtual time of the first visit (zero = the paper's
	// crawl date, see crawler.Config.Start).
	Start time.Time
	// Vantage is the visitor jurisdiction: "eu" (also "", the paper's
	// setup) or "us".
	Vantage string
	// Chaos enables the client-side fault injector; ChaosSeed drives it,
	// independent of the world seed.
	Chaos     bool
	ChaosSeed uint64
	// Retries is the extra-attempt budget per navigation and fetch:
	// 0 = the crawler's default (2), negative disables retries.
	Retries int
	// VisitBudget bounds one visit's stage-clock time (0 disables the
	// watchdog).
	VisitBudget time.Duration
	// WorldConfig overrides the generated world entirely (nil = Seed and
	// Sites with webworld's calibrated defaults).
	WorldConfig *webworld.Config
}

// World returns the world configuration the campaign generates, whole
// or as a rank window (webworld.GenerateRange).
func (s Spec) World() webworld.Config {
	if s.WorldConfig != nil {
		return *s.WorldConfig
	}
	return webworld.Config{Seed: s.Seed, NumSites: s.Sites}
}

// Client returns an in-process client for a server of w, behind the
// campaign's fault injector when Chaos is set.
func (s Spec) Client(w *webworld.World) *http.Client {
	client := webserver.New(w, nil).Client()
	s.Inject(client)
	return client
}

// Inject wraps client's transport with the campaign's fault injector
// when Chaos is set and returns the injector (nil when it is not).
// Chaos decisions are pure functions of the request, so any transport
// sees the same weather.
func (s Spec) Inject(client *http.Client) *chaos.Injector {
	if !s.Chaos {
		return nil
	}
	in := chaos.NewInjector(webworld.DefaultChaos(s.ChaosSeed), client.Transport)
	client.Transport = in
	return in
}

// Attempts is the crawler's try budget per navigation and fetch.
func (s Spec) Attempts() int {
	switch {
	case s.Retries > 0:
		return s.Retries + 1
	case s.Retries < 0:
		return 1
	}
	return crawler.DefaultAttempts
}

// Crawler returns cfg with the campaign's part filled in: gate,
// parallelism, start, vantage, attempts and visit budget. The caller
// supplies the rest (client, allow-list, writer, sinks).
func (s Spec) Crawler(cfg crawler.Config) crawler.Config {
	cfg.Enforce = s.Enforce
	cfg.Workers = s.Workers
	cfg.Start = s.Start
	cfg.Vantage = s.Vantage
	cfg.Attempts = s.Attempts()
	cfg.VisitBudget = s.VisitBudget
	return cfg
}

// Flags is a Spec's command-line form, registered on a flag set by
// Bind; read the Spec back with Flags.Spec after parsing.
type Flags struct {
	fs       *flag.FlagSet
	spec     Spec
	date     string
	retries  int
	budgetMS int
}

// Bind registers the campaign flags on fs. Names, defaults and meanings
// are the campaign commands' own: -retries N is N extra attempts (0
// disables), -date is YYYY-MM-DD, -visit-budget-ms is milliseconds.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.Uint64Var(&f.spec.Seed, "seed", 1, "world seed")
	fs.IntVar(&f.spec.Sites, "sites", 50000, "number of ranked sites to crawl")
	fs.IntVar(&f.spec.Workers, "workers", 16, "crawl parallelism")
	fs.BoolVar(&f.spec.Enforce, "enforce", false, "run the healthy-gate ablation instead of the corrupted gate")
	fs.StringVar(&f.date, "date", "", "virtual crawl date YYYY-MM-DD (default 2024-03-30); earlier dates see fewer active callers")
	fs.StringVar(&f.spec.Vantage, "vantage", "eu", "visitor jurisdiction: eu (the paper's setup) or us")
	fs.BoolVar(&f.spec.Chaos, "chaos", false, "inject the paper-calibrated fault profile client-side")
	fs.Uint64Var(&f.spec.ChaosSeed, "chaos-seed", 1, "fault-injection seed (independent of the world seed)")
	fs.IntVar(&f.retries, "retries", defaultRetries, "extra attempts per navigation/fetch; 0 disables retries")
	fs.IntVar(&f.budgetMS, "visit-budget-ms", 0, "per-visit deadline on the virtual clock; 0 disables the watchdog")
	return f
}

// Spec returns the parsed campaign. -retries and -vantage left unset
// leave Retries and Vantage at their zero values, which mean the same
// as the printed defaults; that keeps Args lossless.
func (f *Flags) Spec() (Spec, error) {
	s := f.spec
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if !set["vantage"] {
		s.Vantage = ""
	}
	switch {
	case !set["retries"]:
		s.Retries = 0
	case f.retries > 0:
		s.Retries = f.retries
	default:
		s.Retries = -1
	}
	if f.date != "" {
		t, err := time.Parse(dateLayout, f.date)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: -date: %w", err)
		}
		s.Start = t
	}
	s.VisitBudget = time.Duration(f.budgetMS) * time.Millisecond
	return s, nil
}

// Args renders s as the flags Bind parses back into s. It fails on
// what no flag can carry: a WorldConfig override, a Start that is not a
// UTC midnight, or a VisitBudget finer than a millisecond.
func (s Spec) Args() ([]string, error) {
	if s.WorldConfig != nil {
		return nil, errors.New("campaign: a WorldConfig override has no flag")
	}
	args := []string{
		"-seed=" + strconv.FormatUint(s.Seed, 10),
		"-sites=" + strconv.Itoa(s.Sites),
		"-workers=" + strconv.Itoa(s.Workers),
		"-chaos-seed=" + strconv.FormatUint(s.ChaosSeed, 10),
	}
	if s.Enforce {
		args = append(args, "-enforce")
	}
	if s.Chaos {
		args = append(args, "-chaos")
	}
	if !s.Start.IsZero() {
		day := s.Start.Format(dateLayout)
		if midnight, _ := time.Parse(dateLayout, day); s.Start != midnight {
			return nil, fmt.Errorf("campaign: start %s is not a UTC midnight (-date carries days)", s.Start)
		}
		args = append(args, "-date="+day)
	}
	if s.Vantage != "" {
		args = append(args, "-vantage="+s.Vantage)
	}
	switch {
	case s.Retries > 0:
		args = append(args, "-retries="+strconv.Itoa(s.Retries))
	case s.Retries < 0:
		args = append(args, "-retries=0")
	}
	if s.VisitBudget != 0 {
		if s.VisitBudget%time.Millisecond != 0 {
			return nil, fmt.Errorf("campaign: visit budget %s is finer than -visit-budget-ms", s.VisitBudget)
		}
		args = append(args, "-visit-budget-ms="+strconv.FormatInt(s.VisitBudget.Milliseconds(), 10))
	}
	return args, nil
}
