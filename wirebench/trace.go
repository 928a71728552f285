package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// traceSpan is one span of a daemon's GET /trace document (Chrome
// trace-event JSON), times in microseconds.
type traceSpan struct {
	Name   string
	ID     uint64
	Parent uint64
	Start  float64
	Dur    float64
	IDs    float64 // the span's "ids" attribute; 0 when absent
}

// parseTrace decodes a GET /trace document into spans.
func parseTrace(doc []byte) ([]traceSpan, error) {
	var raw struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		return nil, fmt.Errorf("decode /trace: %w", err)
	}
	out := make([]traceSpan, 0, len(raw.TraceEvents))
	for _, e := range raw.TraceEvents {
		s := traceSpan{Name: e.Name, Start: e.Ts, Dur: e.Dur}
		id, _ := e.Args["span_id"].(string)
		var err error
		if s.ID, err = strconv.ParseUint(id, 10, 64); err != nil {
			return nil, fmt.Errorf("span %q without a span_id", e.Name)
		}
		if p, ok := e.Args["parent_span_id"].(string); ok {
			if s.Parent, err = strconv.ParseUint(p, 10, 64); err != nil {
				return nil, fmt.Errorf("span %q: bad parent_span_id %q", e.Name, p)
			}
		}
		if n, ok := e.Args["ids"].(float64); ok {
			s.IDs = n
		}
		out = append(out, s)
	}
	return out, nil
}

// spanStats are the per-stage figures of a span set: each value is a
// median over the spans that have it, in microseconds unless named
// otherwise.
type spanStats struct {
	IngestSelf   []float64 // ingest self time
	QueueWait    []float64 // ingest start → shard start
	ShardNsPerID []float64 // shard self time per id, ns
	EmitWait     []float64 // emit start → delivery start
	Delivery     []float64 // delivery self time
}

// analyzeSpans computes self times and parent→child start gaps over the
// ingest → shard → emit → delivery span trees.
func analyzeSpans(spans []traceSpan) spanStats {
	byID := make(map[uint64]*traceSpan, len(spans))
	children := make(map[uint64][]*traceSpan, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
		}
	}
	var st spanStats
	for i := range spans {
		s := &spans[i]
		self := selfTime(s, children[s.ID])
		switch s.Name {
		case "ingest":
			st.IngestSelf = append(st.IngestSelf, self)
		case "shard":
			if p := byID[s.Parent]; p != nil && p.Name == "ingest" {
				st.QueueWait = append(st.QueueWait, s.Start-p.Start)
			}
			if s.IDs > 0 {
				st.ShardNsPerID = append(st.ShardNsPerID, self*1e3/s.IDs)
			}
		case "delivery":
			st.Delivery = append(st.Delivery, self)
			if p := byID[s.Parent]; p != nil && p.Name == "emit" {
				st.EmitWait = append(st.EmitWait, s.Start-p.Start)
			}
		}
	}
	return st
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (children may overlap each other and run past the parent).
func selfTime(s *traceSpan, kids []*traceSpan) float64 {
	type iv struct{ a, b float64 }
	end := s.Start + s.Dur
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.Start+k.Dur, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if curB < curA || v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.Dur - covered
}
