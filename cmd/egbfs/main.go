// Command egbfs runs the evolving-graph BFS (Algorithm 1 of Chen & Zhang
// 2016) over an edge-list file and prints the reached temporal nodes with
// their distances.
//
// Usage:
//
//	egbfs -graph g.txt -root 0@1 [-undirected] [-consecutive]
//	      [-backward] [-maxdepth K] [-path v@t]
//
// The graph file holds one "u v t [w]" line per edge ('#' comments). The
// root is node@timelabel. With -path, one shortest temporal path to the
// given target is printed instead of the full reached set.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	evolving "repro"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "edge-list file (required)")
		rootSpec    = flag.String("root", "", "root temporal node as node@timelabel (required)")
		undirected  = flag.Bool("undirected", false, "treat edges as undirected")
		consecutive = flag.Bool("consecutive", false, "consecutive-only causal edges (ablation; default all-pairs)")
		backward    = flag.Bool("backward", false, "search backward in time (provenance)")
		maxDepth    = flag.Int("maxdepth", 0, "stop after this many levels (0 = unbounded)")
		pathSpec    = flag.String("path", "", "print one shortest path to node@timelabel instead of the reached set")
	)
	flag.Parse()
	if *graphPath == "" || *rootSpec == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fail("open graph: %v", err)
	}
	g, err := evolving.ReadEdgeList(f, !*undirected)
	f.Close()
	if err != nil {
		fail("parse graph: %v", err)
	}

	root, err := parseTemporal(g, *rootSpec)
	if err != nil {
		fail("root: %v", err)
	}

	mode := evolving.CausalAllPairs
	if *consecutive {
		mode = evolving.CausalConsecutive
	}
	opts := evolving.Options{Mode: mode, MaxDepth: *maxDepth, TrackParents: *pathSpec != ""}
	if *backward {
		opts.Direction = evolving.Backward
	}

	res, err := evolving.BFS(g, root, opts)
	if err != nil {
		fail("BFS: %v", err)
	}

	if *pathSpec != "" {
		target, err := parseTemporal(g, *pathSpec)
		if err != nil {
			fail("path target: %v", err)
		}
		p := res.PathTo(target)
		if p == nil {
			fmt.Printf("(%d@%d) is unreachable from (%d@%d)\n",
				target.Node, g.TimeLabel(int(target.Stamp)), root.Node, g.TimeLabel(int(root.Stamp)))
			os.Exit(1)
		}
		for i, tn := range p {
			if i > 0 {
				fmt.Print(" -> ")
			}
			fmt.Printf("%d@%d", tn.Node, g.TimeLabel(int(tn.Stamp)))
		}
		fmt.Printf("   (%d hops)\n", len(p)-1)
		return
	}

	type row struct {
		tn   evolving.TemporalNode
		dist int
	}
	var rows []row
	res.Visit(func(tn evolving.TemporalNode, d int) bool {
		rows = append(rows, row{tn, d})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].dist != rows[j].dist {
			return rows[i].dist < rows[j].dist
		}
		if rows[i].tn.Stamp != rows[j].tn.Stamp {
			return rows[i].tn.Stamp < rows[j].tn.Stamp
		}
		return rows[i].tn.Node < rows[j].tn.Node
	})
	fmt.Printf("# BFS from %d@%d: %d temporal nodes reached, eccentricity %d\n",
		root.Node, g.TimeLabel(int(root.Stamp)), res.NumReached(), res.MaxDist())
	fmt.Printf("%-10s %-12s %s\n", "node", "time", "dist")
	for _, r := range rows {
		fmt.Printf("%-10d %-12d %d\n", r.tn.Node, g.TimeLabel(int(r.tn.Stamp)), r.dist)
	}
}

// parseTemporal parses "node@timelabel" against g's stamp labels.
func parseTemporal(g *evolving.Graph, s string) (evolving.TemporalNode, error) {
	parts := strings.SplitN(s, "@", 2)
	if len(parts) != 2 {
		return evolving.TemporalNode{}, fmt.Errorf("want node@timelabel, got %q", s)
	}
	node, err := strconv.ParseInt(parts[0], 10, 32)
	if err != nil {
		return evolving.TemporalNode{}, fmt.Errorf("bad node %q: %v", parts[0], err)
	}
	label, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return evolving.TemporalNode{}, fmt.Errorf("bad time label %q: %v", parts[1], err)
	}
	stamp := g.StampOf(label)
	if stamp < 0 {
		return evolving.TemporalNode{}, fmt.Errorf("no snapshot with time label %d", label)
	}
	return evolving.TemporalNode{Node: int32(node), Stamp: int32(stamp)}, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "egbfs: "+format+"\n", args...)
	os.Exit(1)
}
