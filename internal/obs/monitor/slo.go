package monitor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"fsdinference/internal/obs"
)

// ObjectiveKind selects what an SLO counts as a bad event.
type ObjectiveKind int

const (
	// LatencyQuantile promises that an Objective fraction of requests
	// complete within Target — "p99 ≤ 200ms" is Objective 0.99 with
	// Target 200ms. Bad events are requests slower than Target,
	// bucket-granular from the windowed histogram delta.
	LatencyQuantile ObjectiveKind = iota
	// Availability promises that an Objective fraction of requests
	// succeed. Bad events are failures, shed requests included.
	Availability
)

// SLO is one service-level objective: over any Window, an Objective
// fraction of events must be good, with the remaining budget consumed by
// bad events as the burn-rate rules measure.
type SLO struct {
	// Name labels the SLO in alerts and exports.
	Name string
	// Endpoint scopes the SLO to one endpoint; empty applies it to all.
	Endpoint string
	Kind     ObjectiveKind
	// Target is the latency threshold for LatencyQuantile objectives.
	Target time.Duration
	// Window is the error-budget period the objective is promised over
	// (e.g. 28 days). Burn rates are normalized, so it only documents
	// the budget the burn multiples refer to.
	//simlint:allow testonly — bench/ sets it on its SLOs
	Window time.Duration
	// Objective is the promised good fraction in (0, 1), e.g. 0.999.
	Objective float64
}

// validate checks one SLO on its own: a name, an objective strictly
// inside (0, 1) — NaN is not — and a positive target for a latency SLO.
func (s SLO) validate() error {
	if s.Name == "" {
		return errors.New("no name")
	}
	if !(s.Objective > 0 && s.Objective < 1) {
		return fmt.Errorf("%q objective %v outside (0, 1)", s.Name, s.Objective)
	}
	if s.Kind == LatencyQuantile && s.Target <= 0 {
		return fmt.Errorf("latency SLO %q needs a positive target", s.Name)
	}
	return nil
}

// split counts the window's good and bad events under this SLO.
func (s *SLO) split(smp *Sample, lat *obs.Histogram) (good, bad int64) {
	switch s.Kind {
	case Availability:
		bad = smp.Failures
		good = smp.Requests - bad
	default:
		total := int64(lat.Count())
		good = int64(lat.CountAtMost(s.Target))
		bad = total - good
	}
	// The serving layer counts a request and its failure together as it
	// resolves, and CountAtMost is at most the count: neither side goes
	// below zero.
	return good, bad
}

// Severity ranks an alert: a Page demands immediate action, a Ticket is
// a slow burn worth a look.
type Severity int

const (
	Ticket Severity = iota
	Page
)

// severityNames are the severities' names, indexed by Severity.
var severityNames = [...]string{Ticket: "ticket", Page: "page"}

func (s Severity) String() string { return severityNames[s] }

// BurnRule is one multi-window burn-rate alert rule in the Google SRE
// workbook's style: fire when the error budget burns at least Burn times
// its sustainable rate over both the Short and the Long lookback — the
// short window makes the alert reset quickly, the long one keeps a brief
// blip from paging.
type BurnRule struct {
	Severity    Severity
	Short, Long time.Duration
	Burn        float64
}

// DefaultRules returns the classic pair: a fast 5m/1h page at 14.4×
// burn (2% of a 30-day budget in an hour) and a slow 30m/6h ticket at
// 6× (5% in six hours).
func DefaultRules() []BurnRule {
	return []BurnRule{
		{Severity: Page, Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4},
		{Severity: Ticket, Short: 30 * time.Minute, Long: 6 * time.Hour, Burn: 6},
	}
}

// AlertEvent records one alert transition: a rule starting or stopping
// to fire for one SLO on one endpoint, stamped with the simulated window
// boundary that evaluated it (relative to the replay start).
type AlertEvent struct {
	At       time.Duration
	Endpoint string
	SLO      string
	Severity Severity
	Rule     BurnRule
	Firing   bool
	// BurnShort and BurnLong are the burn rates that crossed (or
	// receded from) the rule's threshold.
	BurnShort, BurnLong float64
}

// Spec configures a Monitor.
type Spec struct {
	// Interval is the scrape period in simulated time (default 1m).
	Interval time.Duration
	SLOs     []SLO
	// Rules are the burn-rate alert rules (default DefaultRules).
	Rules []BurnRule
	// Passive records series and alerts but tells the serving layer not
	// to act on them — no alert-driven re-plan or pool boost. The
	// baseline arm of the flash-crowd experiment runs passive.
	Passive bool
}

func (s Spec) withDefaults() Spec {
	if s.Interval == 0 {
		s.Interval = time.Minute
	}
	if s.Rules == nil {
		s.Rules = DefaultRules()
	}
	return s
}

func (s Spec) validate() error {
	if s.Interval <= 0 {
		return fmt.Errorf("monitor: scrape interval must be positive, got %v", s.Interval)
	}
	for i, slo := range s.SLOs {
		if err := slo.validate(); err != nil {
			return fmt.Errorf("monitor: SLO %d: %w", i, err)
		}
	}
	for i, r := range s.Rules {
		if r.Short <= 0 || r.Long < r.Short {
			return fmt.Errorf("monitor: burn rule %d windows %v/%v are not 0 < short ≤ long", i, r.Short, r.Long)
		}
		if r.Burn <= 0 {
			return fmt.Errorf("monitor: burn rule %d threshold %v must be positive", i, r.Burn)
		}
	}
	return nil
}

// ParseSLO parses the fsdserve -slo flag syntax, a comma-separated
// key=value list:
//
//	latency:p99<=250ms@0.99[,endpoint=large][,window=720h][,name=large-p99]
//	availability@0.999[,endpoint=small]
//
// The leading clause is either "latency:pNN<=DUR@OBJ" (the quantile is
// documentation — the objective is what is enforced; pNN defaults OBJ to
// NN/100 when @OBJ is omitted) or "availability@OBJ". A parsed SLO has
// passed the checks New applies to every SLO of a Spec.
func ParseSLO(s string) (SLO, error) {
	parts := strings.Split(s, ",")
	head := strings.TrimSpace(parts[0])
	slo := SLO{Window: 30 * 24 * time.Hour}
	headNoObj := head
	if at := strings.LastIndexByte(head, '@'); at >= 0 {
		obj, err := strconv.ParseFloat(head[at+1:], 64)
		if err != nil {
			return SLO{}, fmt.Errorf("monitor: bad objective in %q: %v", head, err)
		}
		slo.Objective = obj
		headNoObj = head[:at]
	}
	switch {
	case headNoObj == "availability":
		slo.Kind = Availability
		slo.Name = "availability"
		if slo.Objective == 0 {
			return SLO{}, fmt.Errorf("monitor: availability SLO %q needs @objective", s)
		}
	case strings.HasPrefix(headNoObj, "latency:p"):
		slo.Kind = LatencyQuantile
		rest := strings.TrimPrefix(headNoObj, "latency:p")
		le := strings.Index(rest, "<=")
		if le < 0 {
			return SLO{}, fmt.Errorf("monitor: latency SLO %q needs pNN<=duration", s)
		}
		q, err := strconv.Atoi(rest[:le])
		if err != nil || q <= 0 || q >= 100 {
			return SLO{}, fmt.Errorf("monitor: bad quantile in %q", s)
		}
		d, err := time.ParseDuration(rest[le+2:])
		if err != nil {
			return SLO{}, fmt.Errorf("monitor: bad latency target in %q: %v", s, err)
		}
		slo.Target = d
		slo.Name = fmt.Sprintf("latency-p%d", q)
		if slo.Objective == 0 {
			slo.Objective = float64(q) / 100
		}
	default:
		return SLO{}, fmt.Errorf("monitor: SLO %q must start with latency:pNN<=DUR or availability@OBJ", s)
	}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return SLO{}, fmt.Errorf("monitor: SLO option %q is not key=value", kv)
		}
		switch k {
		case "endpoint":
			slo.Endpoint = v
		case "name":
			slo.Name = v
		case "window":
			d, err := time.ParseDuration(v)
			if err != nil {
				return SLO{}, fmt.Errorf("monitor: bad SLO window %q: %v", v, err)
			}
			slo.Window = d
		default:
			return SLO{}, fmt.Errorf("monitor: unknown SLO option %q", k)
		}
	}
	if err := slo.validate(); err != nil {
		return SLO{}, fmt.Errorf("monitor: SLO %q: %w", s, err)
	}
	return slo, nil
}
