// Package egio serialises evolving graphs. It has two formats, each with
// one job:
//
//   - the edge list, for input: a whitespace text format, one "u v t [w]"
//     line per static edge with '#' comments — the lingua franca of graph
//     tooling and what every command's -graph flag reads;
//   - EGCP, for durable state: the mmap'd, CRC-checked checkpoint that
//     ingest writes and a warm restart opens (checkpoint.go).
//
// Both round-trip exactly: reading what was written reproduces the same
// snapshots, edges, weights and time labels.
package egio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/egraph"
)

// maxNodeID caps the node ids an edge list may name. A graph is dense
// in its ids — every stamp holds a pointer row per node — so without a
// cap a one-line file naming node 99999391 asks for gigabytes. The cap
// is the ingest write path's default Config.MaxNodeID, so a loaded graph
// never holds a node the service's own writes would refuse.
const maxNodeID = 1<<24 - 1

// ReadEdgeList parses the text edge-list format: each non-empty,
// non-comment line is "u v t" or "u v t w" with integer node ids in
// [0, 1<<24 - 1] and time label, optional float weight. The graph is
// weighted iff any line carries a weight.
func ReadEdgeList(r io.Reader, directed bool) (*egraph.IntEvolvingGraph, error) {
	type edge struct {
		u, v int32
		t    int64
		w    float64
	}
	var edges []edge
	weighted := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("egio: line %d: want 3 or 4 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("egio: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("egio: line %d: bad target %q: %w", lineNo, fields[1], err)
		}
		t, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("egio: line %d: bad time %q: %w", lineNo, fields[2], err)
		}
		w := 1.0
		if len(fields) == 4 {
			if w, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("egio: line %d: bad weight %q: %w", lineNo, fields[3], err)
			}
			weighted = true
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("egio: line %d: negative node id", lineNo)
		}
		if u > maxNodeID || v > maxNodeID {
			return nil, fmt.Errorf("egio: line %d: node id above %d", lineNo, maxNodeID)
		}
		edges = append(edges, edge{int32(u), int32(v), t, w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("egio: read: %w", err)
	}
	var b *egraph.Builder
	if weighted {
		b = egraph.NewWeightedBuilder(directed)
	} else {
		b = egraph.NewBuilder(directed)
	}
	for _, e := range edges {
		b.AddWeightedEdge(e.u, e.v, e.t, e.w)
	}
	return b.Build(), nil
}

// WriteEdgeList writes g in the text edge-list format, one line per
// static edge in stamp-major order, with weights when g is weighted.
func WriteEdgeList(w io.Writer, g *egraph.IntEvolvingGraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# evolving graph: %d nodes, %d stamps, %d static edges\n",
		g.NumNodes(), g.NumStamps(), g.StaticEdgeCount())
	var err error
	for t := int32(0); t < int32(g.NumStamps()) && err == nil; t++ {
		label := g.TimeLabel(int(t))
		g.VisitEdges(t, func(u, v int32, wt float64) bool {
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %d %g\n", u, v, label, wt)
			} else {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", u, v, label)
			}
			return err == nil
		})
	}
	if err != nil {
		return fmt.Errorf("egio: write: %w", err)
	}
	return bw.Flush()
}
