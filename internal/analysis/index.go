package analysis

import (
	"maps"
	"runtime"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/stats"
)

// Index holds every aggregate the experiments query, built in one
// parallel sharded pass over the dataset. Worker goroutines each consume
// a contiguous stripe of visits into a private indexShard; the shards
// then merge into one Index.
//
// Determinism invariant: every per-shard aggregate is either a counter
// (merge = addition), a set (merge = union), or a max — all commutative
// and associative — and every ordered output downstream is produced by a
// sort with a total order (count desc, name asc tie-break). The merged
// Index, and hence every table and figure, is therefore byte-identical
// regardless of GOMAXPROCS or stripe boundaries. The parity test in
// index_test.go checks this against the sequential legacy scan
// (legacy_test.go).
//
// All hostname splitting goes through one etld.Cache, so each distinct
// hostname is normalized and split into eTLD+1/TLD/region exactly once
// per campaign, and the cached strings are interned: aggregation maps
// keyed by registrable domain share one backing string per domain.
type Index struct {
	etld *etld.Cache

	// called[phase][caller] is the set of sites where the caller invoked
	// the API, over all visits of the phase (failed ones included, as in
	// the legacy calledOn scan).
	called map[dataset.Phase]map[string]siteSet
	// present[phase][registrable domain] is the set of sites embedding a
	// non-failed resource of that domain, over successful visits.
	present map[dataset.Phase]map[string]siteSet
	// callers classifies every distinct caller seen in any phase.
	callers map[string]callerFacts
	// aaAllowlist lists the Allowed & Attested allow-list domains in
	// Allowlist.Domains() order — Figure 2's candidate set.
	aaAllowlist []string

	// Precomputed parameterless experiments; the Compute* wrappers hand
	// out defensive copies so callers can never corrupt the index.
	overview    Overview
	reliability Reliability
	table1      Table1
	anomaly     Anomaly
	figure7     Figure7
	callTypes   CallTypes
	languages   Languages
	enrolment   Enrolment
	trajectory  Trajectory
}

// siteSet is a set of website domains.
type siteSet = map[string]bool

// callerFacts is the classification every experiment keys on: allow-list
// membership and attestation validity. Folding records only the allowed
// bit (indexShard.Allowed) — the allow-list exists before the first
// visit, but the attestation sweep runs after the crawl — and finalize
// resolves attested. That split is what lets a live index fold records
// while the campaign is still running (live.go) and still finalize into
// the exact post-hoc Index.
type callerFacts struct {
	allowed  bool
	attested bool
}

// epochSeconds is the longitudinal bucket width: one virtual week, the
// cadence of the paper's §6 continuous-monitoring proposal.
const epochSeconds = 7 * 24 * 60 * 60

// epochCount accumulates one virtual-week bucket of the longitudinal
// trajectory (experiment L1's live form). Counters add, sets union.
type epochCount struct {
	Visits  int             `json:"visits"`
	Calls   int             `json:"calls"`
	Callers map[string]bool `json:"callers"`
	Sites   siteSet         `json:"sites"`
}

// rankCount accumulates Before-Accept visit outcomes per Tranco rank, so
// the rank-decile table can be assembled after the global max rank is
// known.
type rankCount struct {
	Attempted int `json:"a"`
	Succeeded int `json:"s"`
}

// BuildIndex aggregates the dataset with one worker per CPU.
func BuildIndex(in *Input) *Index {
	return buildIndex(in, runtime.GOMAXPROCS(0))
}

// buildIndex is the worker-count-explicit core, separated so tests can
// prove the output is independent of the worker count.
func buildIndex(in *Input, workers int) *Index {
	return buildShardIndex(in, workers).agg.finalize(in)
}

// indexShard is the analysis accumulator: add folds one visit into it,
// absorb merges another accumulator into it, and finalize turns it into
// an Index. Every field merges commutatively (see the Index determinism
// invariant). The tagged fields, in declaration order, are the body of
// the `<journal>.idx` snapshot (live.go): the file is this struct's JSON
// encoding, so a new aggregate needs a field here (allocated in
// newIndexShard when it is a map) and a line in add, absorb and
// finalize — nothing else.
type indexShard struct {
	in    *Input
	cache *etld.Cache

	Called  map[dataset.Phase]map[string]siteSet `json:"called"`
	Present map[dataset.Phase]map[string]siteSet `json:"present"`
	// Allowed memoizes the allow-list membership of every distinct
	// caller; its keys are the caller set.
	Allowed map[string]bool `json:"allowed"`

	// Overview (D1). AALegitCalled keys the successful After-Accept
	// call sites by their allowed caller; which of those callers are
	// attested — and hence which sites count as "legit call" sites — is
	// only known at finalize, after the attestation sweep.
	Attempted     siteSet            `json:"attempted"`
	Visited       siteSet            `json:"visited"`
	Accepted      siteSet            `json:"accepted"`
	ThirdParties  map[string]bool    `json:"third_parties"`
	DAASites      siteSet            `json:"daa_sites"`
	AALegitCalled map[string]siteSet `json:"aa_legit_called"`
	Banners       int                `json:"banners"`

	// Reliability (D1r).
	Retries       int               `json:"retries"`
	CircuitOpens  int               `json:"circuit_opens"`
	RelAttempted  int               `json:"rel_attempted"`
	RelSucceeded  int               `json:"rel_succeeded"`
	RelFailed     int               `json:"rel_failed"`
	PartialVisits int               `json:"partial_visits"`
	ByClass       map[string]int    `json:"by_class"`
	Ranks         map[int]rankCount `json:"ranks"`
	MaxRank       int               `json:"max_rank"`

	// Anomaly (A1).
	AnomCalls int     `json:"anom_calls"`
	SameSLD   int     `json:"same_sld"`
	JSCalls   int     `json:"js_calls"`
	AnomCPs   siteSet `json:"anom_cps"`
	AnomSites siteSet `json:"anom_sites"`
	GTMSites  siteSet `json:"gtm_sites"`

	// Figure 7.
	F7Total    int           `json:"f7_total"`
	F7Quest    int           `json:"f7_quest"`
	SitesByCMP stats.Counter `json:"sites_by_cmp"`
	QuestByCMP stats.Counter `json:"quest_by_cmp"`

	// Call types (X1).
	ByPhase     map[dataset.Phase]map[dataset.CallType]int `json:"by_phase"`
	LegitByType map[dataset.CallType]int                   `json:"legit_by_type"`
	AnomByType  map[dataset.CallType]int                   `json:"anom_by_type"`
	PerCP       map[string]map[dataset.CallType]int        `json:"per_cp"`

	// Languages (D2).
	LangVisited    int           `json:"lang_visited"`
	LangNoBanner   int           `json:"lang_no_banner"`
	LangMissed     int           `json:"lang_missed"`
	AcceptedByLang stats.Counter `json:"accepted_by_lang"`

	// Longitudinal trajectory (L1 live form): per-virtual-week buckets.
	Epochs map[int]epochCount `json:"epochs"`
}

func newIndexShard(in *Input, cache *etld.Cache) *indexShard {
	return &indexShard{
		in:    in,
		cache: cache,
		Called: map[dataset.Phase]map[string]siteSet{
			dataset.BeforeAccept: {},
			dataset.AfterAccept:  {},
		},
		Present: map[dataset.Phase]map[string]siteSet{
			dataset.BeforeAccept: {},
			dataset.AfterAccept:  {},
		},
		Allowed:        make(map[string]bool),
		Attempted:      make(siteSet),
		Visited:        make(siteSet),
		Accepted:       make(siteSet),
		ThirdParties:   make(map[string]bool),
		DAASites:       make(siteSet),
		AALegitCalled:  make(map[string]siteSet),
		ByClass:        make(map[string]int),
		Ranks:          make(map[int]rankCount),
		AnomCPs:        make(siteSet),
		AnomSites:      make(siteSet),
		GTMSites:       make(siteSet),
		SitesByCMP:     stats.Counter{},
		QuestByCMP:     stats.Counter{},
		ByPhase:        make(map[dataset.Phase]map[dataset.CallType]int),
		LegitByType:    make(map[dataset.CallType]int),
		AnomByType:     make(map[dataset.CallType]int),
		PerCP:          make(map[string]map[dataset.CallType]int),
		AcceptedByLang: stats.Counter{},
		Epochs:         make(map[int]epochCount),
	}
}

// allowed memoizes the allow-list membership per distinct caller. Only
// this bit is known at fold time; finalize resolves attestation from the
// post-crawl attestation sweep (see callerFacts).
func (s *indexShard) allowed(caller string) bool {
	a, ok := s.Allowed[caller]
	if !ok {
		a = s.in.Allowlist != nil && s.in.Allowlist.Contains(caller)
		s.Allowed[caller] = a
	}
	return a
}

// phaseSets returns the per-caller/per-CP site-set map of a phase,
// creating it for phases beyond the standard two.
func phaseSets(m map[dataset.Phase]map[string]siteSet, p dataset.Phase) map[string]siteSet {
	sets := m[p]
	if sets == nil {
		sets = make(map[string]siteSet)
		m[p] = sets
	}
	return sets
}

// add folds one visit into the shard: a single pass over its resources
// and calls feeds every experiment's aggregate at once. Each branch
// replicates the exact phase/success filter of the corresponding legacy
// scan (legacy_test.go) — the filters differ per experiment on purpose,
// and the parity test depends on matching them bit for bit.
//
// The incremental snapshot encoder (live_encode.go) relies on two more
// properties: add never deletes a key or changes a set member once
// written, and every key it writes into an accumulator it also writes
// into a fresh one.
func (s *indexShard) add(v *dataset.Visit) {
	ba := v.Phase == dataset.BeforeAccept
	aa := v.Phase == dataset.AfterAccept
	s.Retries += v.Retries

	if ba {
		// Reliability: every Before-Accept visit, successful or not.
		if v.Rank > s.MaxRank {
			s.MaxRank = v.Rank
		}
		rc := s.Ranks[v.Rank]
		rc.Attempted++
		s.RelAttempted++
		if v.Success {
			s.RelSucceeded++
			rc.Succeeded++
			if v.Partial {
				s.PartialVisits++
			}
		} else {
			s.RelFailed++
			class := v.ErrorClass
			if class == "" {
				class = string(chaos.ClassifyText(v.Error))
			}
			s.ByClass[class]++
		}
		s.Ranks[v.Rank] = rc

		// Overview D_BA block.
		s.Attempted[v.Site] = true
		if v.Success {
			s.Visited[v.Site] = true
		}
		if v.BannerDetected {
			s.Banners++
		}
		if v.Accepted {
			s.Accepted[v.Site] = true
		}

		// Languages: successful Before-Accept visits only.
		if v.Success {
			s.LangVisited++
			switch {
			case !v.BannerDetected:
				s.LangNoBanner++
			case v.Accepted:
				lang := v.BannerLanguage
				if lang == "" {
					lang = "unknown"
				}
				s.AcceptedByLang.Add(lang)
			default:
				s.LangMissed++
			}
		}
	}
	if aa && v.Success {
		s.DAASites[v.Site] = true
	}

	// Resources: presence (successful visits), third parties (D_BA, any
	// outcome), circuit-breaker hits (any phase), GTM detection.
	hasGTM := false
	var pres map[string]siteSet
	if v.Success {
		pres = phaseSets(s.Present, v.Phase)
	}
	for i := range v.Resources {
		r := &v.Resources[i]
		if r.Failed {
			if r.Error == string(chaos.ClassCircuitOpen) {
				s.CircuitOpens++
			}
			continue
		}
		reg := s.cache.Registrable(r.Host)
		if pres != nil {
			set := pres[reg]
			if set == nil {
				set = make(siteSet)
				pres[reg] = set
			}
			set[v.Site] = true
		}
		if ba && r.ThirdParty {
			s.ThirdParties[reg] = true
		}
		if r.Host == gtmHost {
			hasGTM = true
		}
	}

	// Calls: caller→site sets (any outcome), call types, anomaly and
	// questionable classification.
	calledPhase := phaseSets(s.Called, v.Phase)
	hasAnomalous, questionable := false, false
	for i := range v.Calls {
		c := &v.Calls[i]
		allowed := s.allowed(c.Caller)

		set := calledPhase[c.Caller]
		if set == nil {
			set = make(siteSet)
			calledPhase[c.Caller] = set
		}
		set[v.Site] = true

		types := s.ByPhase[v.Phase]
		if types == nil {
			types = make(map[dataset.CallType]int)
			s.ByPhase[v.Phase] = types
		}
		types[c.Type]++

		if ba && allowed {
			questionable = true
		}
		if !aa {
			continue
		}
		if allowed {
			s.LegitByType[c.Type]++
			m := s.PerCP[c.Caller]
			if m == nil {
				m = make(map[dataset.CallType]int)
				s.PerCP[c.Caller] = m
			}
			m[c.Type]++
			if v.Success {
				set := s.AALegitCalled[c.Caller]
				if set == nil {
					set = make(siteSet)
					s.AALegitCalled[c.Caller] = set
				}
				set[v.Site] = true
			}
		} else {
			s.AnomByType[c.Type]++
			if v.Success {
				s.AnomCalls++
				s.AnomCPs[c.Caller] = true
				hasAnomalous = true
				if s.cache.SameSecondLevel(c.Caller, v.Site) {
					s.SameSLD++
				}
				if c.Type == dataset.CallJavaScript {
					s.JSCalls++
				}
			}
		}
	}
	if aa && v.Success && hasAnomalous {
		s.AnomSites[v.Site] = true
		if hasGTM {
			s.GTMSites[v.Site] = true
		}
	}

	// Figure 7: successful Before-Accept visits.
	if ba && v.Success {
		s.F7Total++
		if questionable {
			s.F7Quest++
		}
		if v.CMP != "" {
			s.SitesByCMP.Add(v.CMP)
			if questionable {
				s.QuestByCMP.Add(v.CMP)
			}
		}
	}

	// Longitudinal trajectory: bucket the visit into its virtual week.
	// Visit timestamps sit on the deterministic stage clocks, so the
	// bucketing is as reproducible as everything else.
	if !v.FetchedAt.IsZero() {
		ep := int(v.FetchedAt.Unix() / epochSeconds)
		ec := s.Epochs[ep]
		if ec.Callers == nil {
			ec.Callers = make(map[string]bool)
		}
		if ec.Sites == nil {
			ec.Sites = make(siteSet)
		}
		ec.Visits++
		ec.Calls += len(v.Calls)
		for i := range v.Calls {
			ec.Callers[v.Calls[i].Caller] = true
		}
		if aa && len(v.Calls) > 0 {
			ec.Sites[v.Site] = true
		}
		s.Epochs[ep] = ec
	}
}

// absorb merges o into s and returns s. Every operation is commutative,
// so the merge order cannot influence the result. s never keeps a
// reference into o — a map of o is copied the first time its key lands
// in s — which makes absorb the one way accumulator state is copied: a
// clone is a fresh accumulator absorbing the original, a restored
// snapshot is one absorbing the decoded file (which also fills any map
// the file lacks), and a merge leaves its partials untouched.
func (s *indexShard) absorb(o *indexShard) *indexShard {
	for phase, sets := range o.Called {
		s.Called[phase] = mergeSets(s.Called[phase], sets)
	}
	for phase, sets := range o.Present {
		s.Present[phase] = mergeSets(s.Present[phase], sets)
	}
	maps.Copy(s.Allowed, o.Allowed)

	s.Attempted = union(s.Attempted, o.Attempted)
	s.Visited = union(s.Visited, o.Visited)
	s.Accepted = union(s.Accepted, o.Accepted)
	s.ThirdParties = union(s.ThirdParties, o.ThirdParties)
	s.DAASites = union(s.DAASites, o.DAASites)
	s.AALegitCalled = mergeSets(s.AALegitCalled, o.AALegitCalled)
	s.Banners += o.Banners

	s.Retries += o.Retries
	s.CircuitOpens += o.CircuitOpens
	s.RelAttempted += o.RelAttempted
	s.RelSucceeded += o.RelSucceeded
	s.RelFailed += o.RelFailed
	s.PartialVisits += o.PartialVisits
	s.ByClass = addCounts(s.ByClass, o.ByClass)
	for rank, rc := range o.Ranks {
		dst := s.Ranks[rank]
		dst.Attempted += rc.Attempted
		dst.Succeeded += rc.Succeeded
		s.Ranks[rank] = dst
	}
	s.MaxRank = max(s.MaxRank, o.MaxRank)

	s.AnomCalls += o.AnomCalls
	s.SameSLD += o.SameSLD
	s.JSCalls += o.JSCalls
	s.AnomCPs = union(s.AnomCPs, o.AnomCPs)
	s.AnomSites = union(s.AnomSites, o.AnomSites)
	s.GTMSites = union(s.GTMSites, o.GTMSites)

	s.F7Total += o.F7Total
	s.F7Quest += o.F7Quest
	s.SitesByCMP = addCounts(s.SitesByCMP, o.SitesByCMP)
	s.QuestByCMP = addCounts(s.QuestByCMP, o.QuestByCMP)

	for phase, types := range o.ByPhase {
		s.ByPhase[phase] = addCounts(s.ByPhase[phase], types)
	}
	s.LegitByType = addCounts(s.LegitByType, o.LegitByType)
	s.AnomByType = addCounts(s.AnomByType, o.AnomByType)
	for cp, types := range o.PerCP {
		s.PerCP[cp] = addCounts(s.PerCP[cp], types)
	}

	s.LangVisited += o.LangVisited
	s.LangNoBanner += o.LangNoBanner
	s.LangMissed += o.LangMissed
	s.AcceptedByLang = addCounts(s.AcceptedByLang, o.AcceptedByLang)

	for ep, ec := range o.Epochs {
		dst := s.Epochs[ep]
		dst.Visits += ec.Visits
		dst.Calls += ec.Calls
		dst.Callers = union(dst.Callers, ec.Callers)
		dst.Sites = union(dst.Sites, ec.Sites)
		s.Epochs[ep] = dst
	}
	return s
}

// union adds src's members to dst and returns the result: dst itself,
// or — when dst is empty — a new map sized for src, so the result never
// aliases src.
func union[K comparable](dst, src map[K]bool) map[K]bool {
	if len(dst) == 0 && src != nil {
		dst = make(map[K]bool, len(src))
	}
	for k := range src {
		dst[k] = true
	}
	return dst
}

// addCounts adds src's counts to dst and returns the result, allocating
// a new map instead of aliasing src when dst is empty (as union does).
func addCounts[M ~map[K]int, K comparable](dst, src M) M {
	if len(dst) == 0 && src != nil {
		dst = make(M, len(src))
	}
	for k, n := range src {
		dst[k] += n
	}
	return dst
}

// mergeSets unions src's site sets into dst's, key by key, and returns
// the result (a new map sized for src when dst is empty, as in union).
func mergeSets(dst, src map[string]siteSet) map[string]siteSet {
	if len(dst) == 0 {
		dst = make(map[string]siteSet, len(src))
	}
	for key, set := range src {
		dst[key] = union(dst[key], set)
	}
	return dst
}

// finalize assembles the Index — the parameterless experiment results,
// matching the legacy computations field for field — from the
// accumulator and in's allow-list block and attestation checks. It only
// reads s, but the Index shares s's maps, so an accumulator that keeps
// folding is finalized through a copy (see LiveIndex.Snapshot).
func (s *indexShard) finalize(in *Input) *Index {
	idx := &Index{
		etld:    s.cache,
		called:  s.Called,
		present: s.Present,
		callers: make(map[string]callerFacts, len(s.Allowed)),
	}
	// Resolve the attestation half of every caller's classification.
	// Folding recorded only the allow-list bit (the attestation sweep
	// happens after the crawl — a live index folds long before the
	// records it will be judged against exist); the input handed to
	// finalize carries the campaign-global attestation checks.
	for caller, allowed := range s.Allowed {
		rec, ok := in.Attestations[s.cache.Registrable(caller)]
		idx.callers[caller] = callerFacts{allowed: allowed, attested: ok && rec.Attested()}
	}

	// Table 1 allow-list block + Figure 2's candidate list.
	t := Table1{}
	if in.Allowlist != nil {
		t.Allowed = in.Allowlist.Len()
		for _, d := range in.Allowlist.Domains() {
			if rec, ok := in.Attestations[d]; ok && rec.Attested() {
				t.AllowedAttested++
				idx.aaAllowlist = append(idx.aaAllowlist, d)
			} else {
				t.AllowedNotAttested++
			}
		}
	}
	for caller := range idx.called[dataset.AfterAccept] {
		switch facts := idx.callers[caller]; {
		case facts.allowed && facts.attested:
			t.AAAllowedAttested++
		case !facts.allowed && facts.attested:
			t.AANotAllowedAttested++
		case !facts.allowed:
			t.AANotAllowed++
		}
	}
	for caller := range idx.called[dataset.BeforeAccept] {
		switch facts := idx.callers[caller]; {
		case facts.allowed && facts.attested:
			t.BAAllowedAttested++
		case !facts.allowed:
			t.BANotAllowed++
		}
	}
	idx.table1 = t

	// Overview. The "legit call" site set is the union of the successful
	// After-Accept call sites of the allowed callers that turned out
	// attested — the same aa && allowed && success && attested condition
	// the legacy scan applies per call, regrouped by caller so the
	// attested factor could wait for the sweep.
	daaSitesWithCall := make(siteSet)
	for caller, sites := range s.AALegitCalled {
		if idx.callers[caller].attested {
			maps.Copy(daaSitesWithCall, sites)
		}
	}
	idx.overview = Overview{
		Attempted:          len(s.Attempted),
		Visited:            len(s.Visited),
		Accepted:           len(s.Accepted),
		AcceptShare:        stats.Share(len(s.Accepted), len(s.Visited)),
		UniqueThirdParties: len(s.ThirdParties),
		BannersFound:       s.Banners,
		SitesWithLegitCall: len(daaSitesWithCall),
		LegitCallShare:     stats.Share(len(daaSitesWithCall), len(s.DAASites)),
	}

	// Reliability, deciles reassembled from the per-rank counts now that
	// the global max rank is known.
	r := Reliability{
		Attempted:     s.RelAttempted,
		Succeeded:     s.RelSucceeded,
		Failed:        s.RelFailed,
		SuccessRate:   stats.Share(s.RelSucceeded, s.RelAttempted),
		ByClass:       s.ByClass,
		Retries:       s.Retries,
		PartialVisits: s.PartialVisits,
		CircuitOpens:  s.CircuitOpens,
	}
	deciles := make([]ReliabilityDecile, 10)
	for i := range deciles {
		deciles[i].Decile = i + 1
	}
	for rank, rc := range s.Ranks {
		d := &deciles[decileOf(rank, s.MaxRank)]
		d.Attempted += rc.Attempted
		d.Succeeded += rc.Succeeded
	}
	for i := range deciles {
		deciles[i].SuccessRate = stats.Share(deciles[i].Succeeded, deciles[i].Attempted)
		if deciles[i].Attempted > 0 {
			r.Deciles = append(r.Deciles, deciles[i])
		}
	}
	idx.reliability = r

	// Anomaly.
	idx.anomaly = Anomaly{
		UniqueCPs:            len(s.AnomCPs),
		Calls:                s.AnomCalls,
		SameSecondLevel:      s.SameSLD,
		SameSecondLevelShare: stats.Share(s.SameSLD, s.AnomCalls),
		JavaScriptShare:      stats.Share(s.JSCalls, s.AnomCalls),
		AnomalousSites:       len(s.AnomSites),
		SitesWithGTM:         len(s.GTMSites),
		GTMShare:             stats.Share(len(s.GTMSites), len(s.AnomSites)),
	}

	// Figure 7, rows in cmpdb order.
	f7 := Figure7{
		TotalSites:          s.F7Total,
		TotalQuestionable:   s.F7Quest,
		AvgQuestionableRate: stats.Share(s.F7Quest, s.F7Total),
	}
	for _, c := range cmpdb.All() {
		f7.Rows = append(f7.Rows, CMPRow{
			CMP:                   c.Name,
			Sites:                 s.SitesByCMP[c.Name],
			QuestionableSites:     s.QuestByCMP[c.Name],
			PCMP:                  stats.Share(s.SitesByCMP[c.Name], s.F7Total),
			PCMPGivenQuestionable: stats.Share(s.QuestByCMP[c.Name], s.F7Quest),
			PQuestionableGivenCMP: stats.Share(s.QuestByCMP[c.Name], s.SitesByCMP[c.Name]),
		})
	}
	idx.figure7 = f7

	// Call types.
	ct := CallTypes{
		ByPhase:         s.ByPhase,
		LegitByType:     s.LegitByType,
		AnomalousByType: s.AnomByType,
		DominantPerCP:   make(map[string]dataset.CallType, len(s.PerCP)),
	}
	for cp, m := range s.PerCP {
		ct.DominantPerCP[cp] = dominantType(m)
	}
	idx.callTypes = ct

	// Languages.
	idx.languages = Languages{
		Visited:            s.LangVisited,
		NoBanner:           s.LangNoBanner,
		AcceptedByLanguage: s.AcceptedByLang,
		MissedBanner:       s.LangMissed,
	}

	// Enrolment reads the attestation checks, not the visits; computing
	// it here lets ComputeEnrolment answer from a copy.
	e := Enrolment{ByMonth: make(map[string]int)}
	for _, rec := range in.Attestations {
		if !rec.Attested() || rec.IssuedAt.IsZero() {
			continue
		}
		e.Total++
		if e.First.IsZero() || rec.IssuedAt.Before(e.First) {
			e.First = rec.IssuedAt
		}
		e.ByMonth[rec.IssuedAt.Format("2006-01")]++
		if rec.HasEnrollmentSite {
			e.WithEnrollmentSite++
		}
	}
	idx.enrolment = e

	// Longitudinal trajectory: virtual-week buckets in time order.
	idx.trajectory = assembleTrajectory(s.Epochs)
	return idx
}

// dominantType picks a CP's most-used call type, ties broken by the
// AllCallTypes display order.
func dominantType(m map[dataset.CallType]int) dataset.CallType {
	best, bestN := dataset.CallJavaScript, -1
	for _, typ := range AllCallTypes {
		if m[typ] > bestN {
			best, bestN = typ, m[typ]
		}
	}
	return best
}

// Hosts returns the number of distinct hostnames interned by the index's
// etld cache.
func (idx *Index) Hosts() int { return idx.etld.Len() }

// copy helpers for the Compute* wrappers: results share nothing with the
// index, so concurrent queries and caller-side mutation stay safe.

func copyTypeCounts(m map[dataset.CallType]int) map[dataset.CallType]int {
	out := make(map[dataset.CallType]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyStringCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyCounter(c stats.Counter) stats.Counter {
	out := make(stats.Counter, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}
