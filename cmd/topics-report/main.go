// Command topics-report runs the whole study in one shot — generate the
// world, crawl it Before- and After-Accept, check attestations, compute
// every table and figure — and prints (or writes) the full report.
//
//	topics-report -seed 1 -sites 50000 -workers 16 -out report.txt
//
// With -live it instead renders the report from an existing (possibly
// still running) campaign journal: the checkpoint index snapshot
// (<data>.idx) is restored and only the journal tail past the committed
// offset is folded, so re-analysis reads O(tail + snapshot) bytes
// instead of the whole dataset. At the final checkpoint the output is
// byte-identical to the post-hoc report.
//
//	topics-report -live crawl.jsonl.gz -seed 1 -sites 50000
package main

import (
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/campaign"
)

func main() {
	cf := campaign.Bind(flag.CommandLine)
	var (
		out       = flag.String("out", "", "write the report here instead of stdout")
		data      = flag.String("data", "", "also write the visit dataset here (JSONL)")
		jsonOut   = flag.String("json", "", "also write the machine-readable report here (JSON)")
		quiet     = flag.Bool("quiet", false, "suppress progress logging")
		tracePath = flag.String("trace", "", "write the campaign's span trees here (JSONL, .gz transparently)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and live campaign metrics at /__metrics on this address")
		livePath  = flag.String("live", "", "render the report from this campaign journal (index snapshot + tail fold) instead of crawling; -seed/-sites must match the campaign")
	)
	flag.Parse()
	spec, err := cf.Spec()
	if err != nil {
		fatal(err)
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := topicscope.NewMetricsRegistry()
	if *pprofAddr != "" {
		dbg, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/ (metrics at %s)\n", dbg.Addr(), topicscope.MetricsPath)
		go func() {
			srv := &http.Server{Handler: topicscope.DebugMux(reg), ReadHeaderTimeout: 10 * time.Second}
			srv.Serve(dbg) //nolint:errcheck // best-effort debug endpoint
		}()
	}
	var traceOut io.Writer
	var traceClose func() error
	if *tracePath != "" {
		raw, err := os.Create(*tracePath) //topicslint:ignore atomicwrite streaming trace sink, tailed live by topics-monitor; cannot be written atomically
		if err != nil {
			fatal(err)
		}
		traceOut, traceClose = raw, raw.Close
		if strings.HasSuffix(*tracePath, ".gz") {
			zw := gzip.NewWriter(raw)
			traceOut = zw
			traceClose = func() error {
				if err := zw.Close(); err != nil {
					return err
				}
				return raw.Close()
			}
		}
	}

	if *livePath != "" {
		if err := liveReport(ctx, *livePath, spec, *out, *jsonOut, reg); err != nil {
			fatal(err)
		}
		return
	}

	results, err := topicscope.Campaign{
		Seed:        spec.Seed,
		Sites:       spec.Sites,
		Workers:     spec.Workers,
		Enforce:     spec.Enforce,
		OutputPath:  *data,
		Start:       spec.Start,
		Vantage:     spec.Vantage,
		Chaos:       spec.Chaos,
		ChaosSeed:   spec.ChaosSeed,
		Retries:     spec.Retries,
		VisitBudget: spec.VisitBudget,
		Logger:      logger,
		Trace:       traceOut,
		Metrics:     reg,
	}.Run(ctx)
	if err != nil {
		fatal(err)
	}
	if traceClose != nil {
		if err := traceClose(); err != nil {
			fatal(err)
		}
		nTraces, _, _, _, _ := results.TraceSummary.Counts()
		fmt.Fprintf(os.Stderr, "traces: %s (%d records)\n", *tracePath, nTraces)
	}

	if *jsonOut != "" {
		if err := topicscope.WriteFileAtomic(*jsonOut, results.Report.WriteJSON); err != nil {
			fatal(err)
		}
	}

	// Headline figures for the summary line come straight from the
	// campaign's analysis index (results.Analysis) — already built by
	// Analyze, so these Compute* calls cost a map lookup, not a rescan.
	overview := topicscope.ComputeOverview(results.Analysis)
	text := fmt.Sprintf("topicscope report — seed=%d sites=%d enforce=%v\ncrawl: %s\nvisited: %d sites, %d third parties\n\n%s",
		spec.Seed, spec.Sites, spec.Enforce, results.Stats, overview.Visited, overview.UniqueThirdParties, results.Report.Render())
	if *out == "" {
		fmt.Print(text)
		return
	}
	err = topicscope.WriteFileAtomic(*out, func(w io.Writer) error {
		_, werr := io.WriteString(w, text)
		return werr
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}

// liveReport renders the analysis report straight from a campaign
// journal: restore the checkpoint index snapshot, fold only the
// uncommitted tail, run the attestation sweep over the live index's
// caller set (the same set crawler.CallerDomains would extract from the
// collected dataset), and compute every section from the assembled
// index. At the final checkpoint the output is byte-identical to the
// post-hoc report over the finished dataset.
func liveReport(ctx context.Context, path string, spec campaign.Spec, out, jsonOut string, reg *topicscope.MetricsRegistry) error {
	world := topicscope.GenerateWorld(spec.World())
	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)

	in := &topicscope.AnalysisInput{Allowlist: allow, Metrics: reg}
	live, st, err := topicscope.LoadLiveAnalysisIndex(path, in)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "live: %d records (snapshot %d + tail %d), %d journal bytes read, snapshot restored: %v\n",
		live.Visits(), st.SnapshotRecords, st.TailRecords, st.BytesRead, st.SnapshotRestored)

	// The attestation sweep the campaign would run after the crawl,
	// against the same served world (and the same chaos weather — its
	// decisions are pure per-request functions, so the outcomes match).
	cr := topicscope.NewCrawler(spec.Crawler(topicscope.CrawlerConfig{
		Client:             spec.Client(world),
		ReferenceAllowlist: allow,
		Metrics:            reg,
	}))
	domains := allow.Domains()
	domains = append(domains, live.Callers()...)
	recs := cr.CheckAttestations(ctx, domains)
	in.Attestations = topicscope.AttestationIndex(recs)

	topicscope.AdoptAnalysisIndex(in, live.Snapshot(in))
	report := topicscope.Analyze(in)

	if jsonOut != "" {
		if err := topicscope.WriteFileAtomic(jsonOut, report.WriteJSON); err != nil {
			return err
		}
	}
	text := report.Render()
	if out == "" {
		fmt.Print(text)
		return nil
	}
	if err := topicscope.WriteFileAtomic(out, func(w io.Writer) error {
		_, werr := io.WriteString(w, text)
		return werr
	}); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-report:", err)
	os.Exit(1)
}
