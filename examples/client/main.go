// Client: the typed egclient walkthrough over both transports
// (DESIGN.md §15). One in-process server is exposed twice — JSON over
// HTTP and the EGWP binary protocol on a second listener — and the
// same typed Client drives both: the second transport to ask a query
// hits the cache entry the first one computed, errors carry the same
// transport-neutral code either way, and the wire client subscribes
// to the change feed — the one way to learn a revision changed, which
// HTTP does not carry — and is pushed each revision the moment the
// ingest pipeline publishes it.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	evolving "repro"
	"repro/egclient"
	"repro/internal/ingest"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One server, two listeners: HTTP JSON and the EGWP binary
	// protocol share the graph, the cache and the feed hub.
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 300, Stamps: 6, Edges: 3_000, Directed: true, Seed: 7,
	})
	srv := evolving.NewQueryServer(g, evolving.ServerConfig{
		Logf: func(string, ...interface{}) {},
	})
	lg, err := ingest.New(srv, ingest.Config{
		CompactEvery:    1, // fold every batch: writes publish promptly
		CompactInterval: time.Hour,
		Logf:            func(string, ...interface{}) {},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lg.Close()
	srv.AttachIngest(lg)

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(httpLn, srv) //nolint:errcheck // torn down with the process
	go srv.ServeWire(wireLn)   //nolint:errcheck // torn down with the process

	httpClient := egclient.NewHTTP("http://"+httpLn.Addr().String(), egclient.HTTPOptions{})
	wireClient, err := egclient.DialWire(ctx, wireLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer wireClient.Close()

	// 1. Same query, both transports: identical answer, one cache
	// entry. Meta carries the revision and the cache outcome — the
	// binary protocol's X-Cache equivalent travels in the frame flags.
	fmt.Println("== one cache, two transports ==")
	overHTTP, m1, err := httpClient.ComponentsWeak(ctx, egclient.ComponentsQuery{})
	if err != nil {
		log.Fatal(err)
	}
	overWire, m2, err := wireClient.ComponentsWeak(ctx, egclient.ComponentsQuery{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTP: %d weak components (cache %s, revision %d)\n",
		overHTTP.Count, m1.Cache, m1.Revision)
	fmt.Printf("wire: %d weak components (cache %s, revision %d)\n",
		overWire.Count, m2.Cache, m2.Revision)

	// 2. Errors carry one transport-neutral code. The same bad request
	// over either transport yields the same *RemoteError.
	fmt.Println("\n== one error surface ==")
	for name, c := range map[string]*egclient.Client{"HTTP": httpClient, "wire": wireClient} {
		_, _, err := c.InfluenceGreedy(ctx, 0, egclient.InfluenceQuery{})
		var re *egclient.RemoteError
		if errors.As(err, &re) {
			fmt.Printf("%s: code=%s message=%q\n", name, re.Code, re.Message)
		}
	}

	// 3. The change-feed: subscribe, write, get pushed the revision —
	// no polling loop anywhere.
	fmt.Println("\n== pushed change-feed ==")
	sub, err := wireClient.Subscribe(ctx, egclient.FeedSpec{
		Kind:   egclient.KindRevision,
		Cursor: egclient.CursorLive,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc, err := wireClient.IngestArcs(ctx, []egclient.Event{
		{Op: egclient.AddArc, U: 0, V: 299, T: 1},
		{Op: egclient.AddArc, U: 299, V: 1, T: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	ev, err := sub.Next(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted %d events (seq %d); revision %d pushed after %s (%d nodes, %d stamps)\n",
		acc.Accepted, acc.Seq, ev.Revision, time.Since(t0).Round(time.Microsecond), ev.Nodes, ev.Stamps)

	// 4. Cursors make the stream resumable: disconnect, miss a
	// revision, resubscribe with the saved cursor and the ring replays
	// exactly what was missed.
	cursor := sub.Cursor()
	sub.Close()
	if _, err := wireClient.IngestArcs(ctx, []egclient.Event{
		{Op: egclient.AddArc, U: 1, V: 299, T: 1},
	}); err != nil {
		log.Fatal(err)
	}
	// The fold publishes asynchronously; resubscribing from the saved
	// cursor delivers the missed revision whenever it lands.
	sub2, err := wireClient.Subscribe(ctx, egclient.FeedSpec{
		Kind:   egclient.KindRevision,
		Cursor: cursor,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sub2.Close()
	ev2, err := sub2.Next(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed from cursor %d: replayed revision %d (kind %s)\n", cursor, ev2.Revision, ev2.Kind)
}
