package server

import (
	"sort"
	"strconv"

	"repro/internal/components"
	"repro/internal/influence"
	"repro/internal/metrics"
	"repro/internal/rank"
)

// The analytics endpoints: whole-graph computations (one BFS per active
// temporal node, a CELF influence run, a Katz power series) served
// through the versioned result cache. Each endpoint is a decoder
// (request.go) that parses and canonicalises its parameters and forms
// the cache key from the parsed values — "?mode=" and "?mode=allpairs"
// share one entry — over either transport; the cached-query pipeline
// (request.go) and runCached collapse concurrent identical requests and
// admit the compute through the in-flight gate. Keys are appended with strconv rather
// than formatted with fmt — a decoder runs on every hit — and their
// spelling is pinned byte for byte by TestCacheKeys, because carryKeep
// parses closeness keys back.

// maxListLimit bounds the limit parameter of the size-list endpoints.
const maxListLimit = 1 << 20

// defaultListLimit is the sizes-list cap when limit is absent.
const defaultListLimit = 100

// ComponentsResponse is the wire form of /components/weak and
// /components/strong: the component count and the size of each
// component, largest first, capped by the limit parameter (0 = all).
type ComponentsResponse struct {
	Mode      string `json:"mode,omitempty"`
	MinSize   int    `json:"minSize,omitempty"`
	Count     int    `json:"count"`
	Largest   int    `json:"largestSize"`
	Sizes     []int  `json:"sizes"`
	Truncated bool   `json:"truncated,omitempty"`
}

func decodeComponentsWeak(s *Server, p *params) (string, func() (interface{}, error)) {
	mode := p.mode()
	limit := p.intRange("limit", defaultListLimit, 0, maxListLimit)
	b := append(make([]byte, 0, 64), "components/weak?mode="...)
	b = append(b, modeName(mode)...)
	b = append(b, "&limit="...)
	key := string(strconv.AppendInt(b, int64(limit), 10))
	return key, func() (interface{}, error) {
		// Weak connectivity is mode-independent, so the maintained
		// partition (internal/inc) answers for both causal modes without
		// touching the graph.
		if mr := p.res; mr != nil && mr.WeakSizes != nil {
			resp := &ComponentsResponse{Mode: modeName(mode), Count: mr.WeakCount, Sizes: []int{}}
			for i, sz := range mr.WeakSizes {
				if i == 0 {
					resp.Largest = sz
				}
				if limit > 0 && i >= limit {
					resp.Truncated = true
					break
				}
				resp.Sizes = append(resp.Sizes, sz)
			}
			return resp, nil
		}
		comps := components.WeakOpts(p.g, components.Options{Mode: mode})
		return componentsResponse(comps, modeName(mode), 0, limit), nil
	}
}

func decodeComponentsStrong(s *Server, p *params) (string, func() (interface{}, error)) {
	minSize := p.intRange("minSize", 2, 1, maxListLimit)
	limit := p.intRange("limit", defaultListLimit, 0, maxListLimit)
	b := append(make([]byte, 0, 64), "components/strong?minSize="...)
	b = strconv.AppendInt(b, int64(minSize), 10)
	b = append(b, "&limit="...)
	key := string(strconv.AppendInt(b, int64(limit), 10))
	return key, func() (interface{}, error) {
		comps := components.StrongOpts(p.g, minSize, components.Options{})
		return componentsResponse(comps, "", minSize, limit), nil
	}
}

func componentsResponse(comps []components.Component, mode string, minSize, limit int) *ComponentsResponse {
	resp := &ComponentsResponse{Mode: mode, MinSize: minSize, Count: len(comps), Sizes: []int{}}
	for i, c := range comps {
		if i == 0 {
			resp.Largest = len(c)
		}
		if limit > 0 && i >= limit {
			resp.Truncated = true
			break
		}
		resp.Sizes = append(resp.Sizes, len(c))
	}
	return resp
}

// SizeDistributionResponse is the wire form of /components/sizes: the
// out-component size of every active temporal node, sorted descending
// (Def. 7's influence profile), capped by limit (0 = all).
type SizeDistributionResponse struct {
	Mode      string  `json:"mode"`
	Count     int     `json:"count"`
	MaxSize   int     `json:"maxSize"`
	MeanSize  float64 `json:"meanSize"`
	Sizes     []int   `json:"sizes"`
	Truncated bool    `json:"truncated,omitempty"`
}

func decodeComponentsSizes(s *Server, p *params) (string, func() (interface{}, error)) {
	mode := p.mode()
	limit := p.intRange("limit", defaultListLimit, 0, maxListLimit)
	b := append(make([]byte, 0, 64), "components/sizes?mode="...)
	b = append(b, modeName(mode)...)
	b = append(b, "&limit="...)
	key := string(strconv.AppendInt(b, int64(limit), 10))
	return key, func() (interface{}, error) {
		sizes := components.SizeDistributionOpts(p.g, components.Options{Mode: mode, Workers: s.cfg.Workers})
		return sizesResponse(sizes, modeName(mode), limit), nil
	}
}

func sizesResponse(sizes []int, mode string, limit int) *SizeDistributionResponse {
	resp := &SizeDistributionResponse{Mode: mode, Count: len(sizes), Sizes: []int{}}
	var sum int
	for _, sz := range sizes {
		sum += sz
	}
	if len(sizes) > 0 {
		resp.MaxSize = sizes[0]
		resp.MeanSize = float64(sum) / float64(len(sizes))
	}
	if limit > 0 && len(sizes) > limit {
		sizes = sizes[:limit]
		resp.Truncated = true
	}
	resp.Sizes = append(resp.Sizes, sizes...)
	return resp
}

// InfluenceSeedJSON is one greedy selection step of /influence/greedy.
type InfluenceSeedJSON struct {
	Node    int32 `json:"node"`
	Gain    int   `json:"gain"`
	Covered int   `json:"covered"`
}

// InfluenceResponse is the wire form of /influence/greedy.
type InfluenceResponse struct {
	K       int                 `json:"k"`
	Mode    string              `json:"mode"`
	Reverse bool                `json:"reverse"`
	Seeds   []InfluenceSeedJSON `json:"seeds"`
	Covered int                 `json:"covered"`
}

func decodeInfluenceGreedy(s *Server, p *params) (string, func() (interface{}, error)) {
	k := p.intRange("k", 0, 1, p.g.NumNodes())
	mode := p.mode()
	reverse := p.boolean("reverse", false)
	if p.err == nil && p.q.Get("k") == "" {
		p.fail("missing parameter %q", "k")
	}
	b := append(make([]byte, 0, 64), "influence/greedy?k="...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, "&mode="...)
	b = append(b, modeName(mode)...)
	b = append(b, "&reverse="...)
	key := string(strconv.AppendBool(b, reverse))
	return key, func() (interface{}, error) {
		seeds, err := influence.Greedy(p.g, k, influence.Options{
			Mode: mode, ReverseEdges: reverse, Workers: s.cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		return influenceResponse(seeds, k, modeName(mode), reverse), nil
	}
}

func influenceResponse(seeds []influence.Seed, k int, mode string, reverse bool) *InfluenceResponse {
	resp := &InfluenceResponse{K: k, Mode: mode, Reverse: reverse, Seeds: []InfluenceSeedJSON{}}
	for _, seed := range seeds {
		resp.Seeds = append(resp.Seeds, InfluenceSeedJSON{Node: seed.Node, Gain: seed.Gain, Covered: seed.Covered})
		resp.Covered = seed.Covered
	}
	return resp
}

// ClosenessResponse is the wire form of /closeness.
type ClosenessResponse struct {
	Root      TemporalNodeJSON `json:"root"`
	Mode      string           `json:"mode"`
	Closeness float64          `json:"closeness"`
}

func decodeCloseness(s *Server, p *params) (string, func() (interface{}, error)) {
	root := p.temporalNode("node", "stamp")
	mode := p.mode()
	b := append(make([]byte, 0, 64), "closeness?node="...)
	b = strconv.AppendInt(b, int64(root.Node), 10)
	b = append(b, "&stamp="...)
	b = strconv.AppendInt(b, int64(root.Stamp), 10)
	b = append(b, "&mode="...)
	key := string(append(b, modeName(mode)...))
	return key, func() (interface{}, error) {
		c, err := metrics.TemporalClosenessOpts(p.g, root, metrics.Options{Mode: mode, Workers: s.cfg.Workers})
		if err != nil {
			return nil, err
		}
		return &ClosenessResponse{Root: tnJSON(p.g, root), Mode: modeName(mode), Closeness: c}, nil
	}
}

// EfficiencyResponse is the wire form of /efficiency.
type EfficiencyResponse struct {
	Mode              string  `json:"mode"`
	Efficiency        float64 `json:"efficiency"`
	ReachableFraction float64 `json:"reachableFraction"`
	MeanDistance      float64 `json:"meanDistance"`
	Diameter          int     `json:"diameter"`
}

func decodeEfficiency(s *Server, p *params) (string, func() (interface{}, error)) {
	mode := p.mode()
	key := "efficiency?mode=" + modeName(mode)
	return key, func() (interface{}, error) {
		st := metrics.GlobalEfficiencyOpts(p.g, metrics.Options{Mode: mode, Workers: s.cfg.Workers})
		return &EfficiencyResponse{
			Mode:              modeName(mode),
			Efficiency:        st.Efficiency,
			ReachableFraction: st.ReachableFraction,
			MeanDistance:      st.MeanDistance,
			Diameter:          st.Diameter,
		}, nil
	}
}

// KatzEntry is one ranked temporal node of /katz.
type KatzEntry struct {
	TemporalNodeJSON
	Score float64 `json:"score"`
}

// KatzResponse is the wire form of /katz: the top temporal nodes by
// Katz centrality over the unfolded graph.
type KatzResponse struct {
	Alpha float64     `json:"alpha"`
	Mode  string      `json:"mode"`
	Top   []KatzEntry `json:"top"`
}

func decodeKatz(s *Server, p *params) (string, func() (interface{}, error)) {
	alpha := p.float("alpha", 0.1)
	mode := p.mode()
	top := p.intRange("top", 10, 1, 1000)
	b := append(make([]byte, 0, 64), "katz?alpha="...)
	b = strconv.AppendFloat(b, alpha, 'g', -1, 64) // what %g prints
	b = append(b, "&mode="...)
	b = append(b, modeName(mode)...)
	b = append(b, "&top="...)
	key := string(strconv.AppendInt(b, int64(top), 10))
	return key, func() (interface{}, error) {
		// The maintained Katz vector (internal/inc) answers directly
		// when it was maintained at the requested alpha; other alphas —
		// or a diverged maintained series — fall back to the verbatim
		// power-series recompute.
		scores := []float64(nil)
		if mr := p.res; mr != nil && alpha == mr.KatzAlpha {
			scores = mr.KatzScores(mode)
		}
		if scores == nil {
			var err error
			scores, err = rank.TemporalKatz(p.g, rank.KatzOptions{Alpha: alpha, Mode: mode})
			if err != nil {
				return nil, err
			}
		}
		active := p.g.ActiveTemporalNodes()
		sort.SliceStable(active, func(i, j int) bool {
			si := scores[p.g.TemporalNodeID(active[i])]
			sj := scores[p.g.TemporalNodeID(active[j])]
			return si > sj
		})
		if top < len(active) {
			active = active[:top]
		}
		resp := &KatzResponse{Alpha: alpha, Mode: modeName(mode), Top: []KatzEntry{}}
		for _, tn := range active {
			resp.Top = append(resp.Top, KatzEntry{
				TemporalNodeJSON: tnJSON(p.g, tn),
				Score:            scores[p.g.TemporalNodeID(tn)],
			})
		}
		return resp, nil
	}
}
