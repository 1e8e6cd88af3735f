package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// ruleSet is every contributor's Fig. 4 rule set: raw data for the named
// consumers, location abstracted to City for everyone, stress withheld
// during weekday conversations, and nothing at all while smoking. An
// auditor, when named, sees only whether the contributor was moving. With
// extra, a rule for a consumer who never queries is appended: a rule edit
// that recompiles the index and drops its caches without changing what
// the benchmark's consumers receive.
func ruleSet(consumers []string, auditor string, extra bool) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `[{"ID":"share-raw","Consumer":["%s"],"Action":"Allow"},`, strings.Join(consumers, `","`))
	b.WriteString(`{"ID":"city-only","Action":{"Abstraction":{"Location":"City"}}},`)
	b.WriteString(`{"ID":"weekday-talk","RepeatTime":{"Day":["Mon","Tue","Wed","Thu","Fri"]},"Context":["Conversation"],"Action":{"Abstraction":{"Stress":"NotShared"}}},`)
	b.WriteString(`{"ID":"no-smoking","Context":["Smoking"],"Action":"Deny"}`)
	if auditor != "" {
		fmt.Fprintf(&b, `,{"ID":"audit-activity","Consumer":["%s"],"Action":{"Abstraction":{"Activity":"Moving/Not Moving"}}}`, auditor)
	}
	if extra {
		b.WriteString(`,{"ID":"guest","Consumer":["guest"],"Action":"Allow"}`)
	}
	b.WriteString(`]`)
	return []byte(b.String())
}

// oracle answers, from the generated inputs alone, how many samples the
// rule set releases to an allowed consumer in a window. It models the
// rules directly — a sample flows unless it was taken while smoking; a
// chest-band sample (ECG, respiration: stress channels) is also withheld
// during a weekday conversation — and never calls the program.
type oracle struct {
	times    []int64 // sample instants (ns), ascending, one per stored row
	released []int32 // released[i] = released rows among times[:i]
	smoking  []wavesegment.Annotation
}

func newOracle(tl *timeline) *oracle {
	o := &oracle{}
	var conv []wavesegment.Annotation
	for _, a := range tl.truth {
		switch a.Context {
		case rules.CtxSmoking:
			o.smoking = append(o.smoking, a)
		case rules.CtxConversation:
			conv = append(conv, a)
		}
	}
	type row struct {
		t    int64
		free bool
	}
	var all []row
	for _, p := range tl.packets {
		chest := p.HasChannel(wavesegment.ChannelECG)
		for i := 0; i < p.NumSamples(); i++ {
			t := p.SampleTime(i)
			free := !covered(o.smoking, t)
			if chest && weekday(t) && covered(conv, t) {
				free = false
			}
			all = append(all, row{t.UnixNano(), free})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	o.times = make([]int64, len(all))
	o.released = make([]int32, len(all)+1)
	for i, r := range all {
		o.times[i] = r.t
		o.released[i+1] = o.released[i]
		if r.free {
			o.released[i+1]++
		}
	}
	return o
}

func weekday(t time.Time) bool {
	d := t.UTC().Weekday()
	return d >= time.Monday && d <= time.Friday
}

func covered(spans []wavesegment.Annotation, t time.Time) bool {
	for _, a := range spans {
		if a.Covers(t) {
			return true
		}
	}
	return false
}

// index returns the first row at or after t.
func (o *oracle) index(t time.Time) int {
	ns := t.UnixNano()
	return sort.Search(len(o.times), func(i int) bool { return o.times[i] >= ns })
}

// releasedIn counts released rows with from <= t < to.
func (o *oracle) releasedIn(from, to time.Time) int {
	return int(o.released[o.index(to)] - o.released[o.index(from)])
}

// storedIn counts all rows with from <= t < to.
func (o *oracle) storedIn(from, to time.Time) int {
	return o.index(to) - o.index(from)
}

// checkReleases verifies what one contributor's store released in
// [from, to): no coordinates or finer-than-City location, nothing from a
// smoking span, and exactly the oracle's number of rows. It returns the
// number of released rows.
func (o *oracle) checkReleases(rels []*abstraction.Release, from, to time.Time) (int, error) {
	n, err := o.checkPrivacy(rels)
	if err != nil {
		return n, err
	}
	if want := o.releasedIn(from, to); n != want {
		return n, fmt.Errorf("released %d rows in [%s, %s), oracle says %d", n, from.Format(time.RFC3339), to.Format(time.RFC3339), want)
	}
	return n, nil
}

// checkPrivacy checks the release invariants without a row count and
// returns the rows released.
func (o *oracle) checkPrivacy(rels []*abstraction.Release) (int, error) {
	n := 0
	for _, r := range rels {
		if r.Location.Granularity < geo.LocCity || r.Location.Point != nil {
			return n, fmt.Errorf("release at %s carries location finer than City (%v)", r.Start, r.Location.Granularity)
		}
		if r.Start.IsZero() || !r.End.After(r.Start) {
			return n, fmt.Errorf("release has no exact time span [%s, %s)", r.Start, r.End)
		}
		for _, a := range o.smoking {
			if a.Overlaps(r.Start, r.End) {
				return n, fmt.Errorf("release [%s, %s) overlaps a denied smoking span", r.Start, r.End)
			}
		}
		for _, c := range r.Contexts {
			if strings.EqualFold(c.Context, rules.CtxSmoking) {
				return n, fmt.Errorf("release [%s, %s) carries a smoking context", r.Start, r.End)
			}
		}
		if r.Segment == nil {
			continue
		}
		for _, ch := range r.Segment.Channels {
			if ch == wavesegment.ChannelLatitude || ch == wavesegment.ChannelLongitude {
				return n, fmt.Errorf("release [%s, %s) carries raw %s", r.Start, r.End, ch)
			}
		}
		n += r.Segment.NumSamples()
	}
	return n, nil
}
