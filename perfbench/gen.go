package main

import (
	"math/rand"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

// epoch is where generated timelines start: a Friday, 23:00 UTC, so data
// near midnight straddles the weekday-only rule.
var epoch = time.Date(2026, 3, 6, 23, 0, 0, 0, time.UTC)

// chunkLen is the length of one generated scenario. Long timelines (a
// phone's day) are generated chunk by chunk so a run only synthesizes
// what it uploads.
const chunkLen = 10 * time.Minute

// batchPackets is how many packets one upload carries: phone.Outbox
// drains 16-packet batches.
const batchPackets = 16

// timeline is one contributor's generated data: time-ordered packets
// from the chest band and the phone, annotated with the scripted ground
// truth a perfect inference would produce, plus the truth itself.
type timeline struct {
	contributor string
	packets     []*wavesegment.Segment
	truth       []wavesegment.Annotation
}

// plan is one contributor's seeded script: the paper's §6 storyline
// (sensors.DayInTheLife: home, a stressful commute, a walk in
// conversation, desk work, a smoke break, the drive home) repeated from a
// given phase, each phase's length jittered by up to ±20%. Every seed
// thus has the same mix of contexts, while the instants, signals and
// noise differ.
type plan struct {
	contributor string
	seed        int64
	start       time.Time
	length      time.Duration
	origin      geo.Point
	script      []sensors.Phase
}

func newPlan(contributor string, seed int64, first int, start time.Time, d time.Duration) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{
		contributor: contributor, seed: seed, start: start, length: d,
		origin: geo.Point{Lat: 34.05 + 0.02*rng.Float64(), Lon: -118.45 + 0.02*rng.Float64()},
	}
	story := sensors.DayInTheLife(start, p.origin, 1).Phases
	for i, total := first, time.Duration(0); total < d; i++ {
		ph := story[i%len(story)]
		ph.Duration = (time.Duration(float64(ph.Duration) * (0.8 + 0.4*rng.Float64()))).Round(time.Second)
		ph.Duration = min(ph.Duration, d-total)
		total += ph.Duration
		p.script = append(p.script, ph)
	}
	return p
}

// chunks is the number of chunkLen pieces the plan generates in.
func (p *plan) chunks() int { return int((p.length + chunkLen - 1) / chunkLen) }

// chunk synthesizes the k-th chunkLen piece of the plan. Each piece is a
// scenario of its own starting at the plan's origin.
func (p *plan) chunk(k int) (*timeline, error) {
	from := time.Duration(k) * chunkLen
	to := min(from+chunkLen, p.length)
	var phases []sensors.Phase
	at := time.Duration(0)
	for _, ph := range p.script {
		a, b := max(at, from), min(at+ph.Duration, to)
		at += ph.Duration
		if a < b {
			ph.Duration = b - a
			phases = append(phases, ph)
		}
		if at >= to {
			break
		}
	}
	rec, err := sensors.Generate(p.contributor, &sensors.Scenario{
		Start: p.start.Add(from), Origin: p.origin, Phases: phases, Seed: p.seed*1000003 + int64(k),
	})
	if err != nil {
		return nil, err
	}
	pkts := rec.AllSegments()
	annotate(pkts, rec.Truth)
	return &timeline{contributor: p.contributor, packets: pkts, truth: rec.Truth}, nil
}

// genTimeline synthesizes d of data for one contributor starting at
// start, first phase first of the storyline. The same arguments always
// yield the same packets.
func genTimeline(contributor string, seed int64, first int, start time.Time, d time.Duration) (*timeline, error) {
	p := newPlan(contributor, seed, first, start, d)
	tl := &timeline{contributor: contributor}
	for k := 0; k < p.chunks(); k++ {
		c, err := p.chunk(k)
		if err != nil {
			return nil, err
		}
		tl.packets = append(tl.packets, c.packets...)
		tl.truth = append(tl.truth, c.truth...)
	}
	return tl, nil
}

// annotate stamps each packet with the truth spans overlapping it,
// clipped to the packet, as the phone does with its inference output.
func annotate(pkts []*wavesegment.Segment, truth []wavesegment.Annotation) {
	for _, p := range pkts {
		ps, pe := p.StartTime(), p.EndTime()
		for _, a := range truth {
			if !a.Overlaps(ps, pe) {
				continue
			}
			from, to := a.Start, a.End
			if from.Before(ps) {
				from = ps
			}
			if to.After(pe) {
				to = pe
			}
			_ = p.Annotate(a.Context, from, to) // from < to: a overlaps the packet
		}
	}
}

// batches cuts packets into upload batches of n packets.
func batches(pkts []*wavesegment.Segment, n int) [][]*wavesegment.Segment {
	var out [][]*wavesegment.Segment
	for len(pkts) > 0 {
		k := n
		if k > len(pkts) {
			k = len(pkts)
		}
		out = append(out, pkts[:k])
		pkts = pkts[k:]
	}
	return out
}

// rows counts the samples in segments.
func rows(segs []*wavesegment.Segment) int {
	n := 0
	for _, s := range segs {
		n += s.NumSamples()
	}
	return n
}

// releasePackets drops timelines' packets once the last set-up has
// uploaded them, so the timed phase does not carry the inputs in the
// heap the servers share.
func releasePackets(tls []*timeline) {
	for _, tl := range tls {
		tl.packets = nil
	}
}
