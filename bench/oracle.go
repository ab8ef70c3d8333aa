package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// oracle checks, after the last delivery, that every LMR caches exactly what
// it should, by two independent routes: the generator's pairing invariants
// (which documents match which LMR's rules, at the last version registered),
// and the MDP engine's own matches — Engine.MatchingResources unioned over
// that LMR's subscriptions. Where documents carry a strong closure, the
// shared Payload resource must be cached beside them. It returns what it
// found wrong.
func (r *runner) oracle() []string {
	st, s := r.st, r.cfg.spec
	var problems []string
	report := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if !st.track.quiesce(time.Now().Add(applyDeadline)) {
		report("deliveries still outstanding %v after the last registration", applyDeadline)
	}
	for j, node := range st.nodes {
		model := map[string]string{} // URI reference -> version
		for _, d := range st.cachedAt(j) {
			model[hostURI(d)] = strconv.Itoa(st.latest[d])
		}

		cached, err := node.Resources("CycleProvider")
		if err != nil {
			report("%s: list cache: %v", node.Name(), err)
			continue
		}
		cache := map[string]string{}
		for _, res := range cached {
			port, _ := res.Get("serverPort")
			cache[res.URIRef] = port.Literal
		}
		if diff := diffVersions(cache, model); diff != "" {
			report("%s cache differs from the generator's model: %s", node.Name(), diff)
		}

		engine := map[string]string{}
		for subID := range node.Subscriptions() {
			matching, err := st.prov.Engine().MatchingResources(subID)
			if err != nil {
				report("%s: matching resources of subscription %d: %v", node.Name(), subID, err)
				continue
			}
			for _, res := range matching {
				port, _ := res.Get("serverPort")
				engine[res.URIRef] = port.Literal
			}
		}
		if diff := diffVersions(cache, engine); diff != "" {
			report("%s cache differs from the engine's matches: %s", node.Name(), diff)
		}

		if s.payload > 0 && len(model) > 0 {
			payloads, err := node.Resources("Payload")
			if err != nil || len(payloads) != 1 || payloads[0].URIRef != payloadURI {
				report("%s: strong closure: want exactly %s cached, got %d Payload resources (err %v)",
					node.Name(), payloadURI, len(payloads), err)
			} else if data, _ := payloads[0].Get("data"); len(data.Literal) != s.payload {
				report("%s: strong closure: payload has %d bytes, want %d", node.Name(), len(data.Literal), s.payload)
			}
		}
	}
	return problems
}

// diffVersions describes how got differs from want (URI -> version), or
// returns "" when they are equal.
func diffVersions(got, want map[string]string) string {
	var missing, extra, stale []string
	for uri, v := range want {
		switch g, ok := got[uri]; {
		case !ok:
			missing = append(missing, uri)
		case g != v:
			stale = append(stale, fmt.Sprintf("%s has version %s, want %s", uri, g, v))
		}
	}
	for uri := range got {
		if _, ok := want[uri]; !ok {
			extra = append(extra, uri)
		}
	}
	if len(missing)+len(extra)+len(stale) == 0 {
		return ""
	}
	first := func(v []string) []string {
		sort.Strings(v)
		return v[:min(3, len(v))]
	}
	return fmt.Sprintf("%d missing %v, %d unexpected %v, %d stale %v",
		len(missing), first(missing), len(extra), first(extra), len(stale), first(stale))
}
