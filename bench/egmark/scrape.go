package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/server"
)

func scrapeMetrics(c *child) (*server.MetricsResponse, error) {
	body, status, err := getBody(context.Background(), c.url()+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// scrapeCache records the child's own cache accounting: the share of
// lookups that were hits, and of those the share served from entries
// carried across a revision swap.
func scrapeCache(c *child, res *result) error {
	m, err := scrapeMetrics(c)
	if err != nil {
		return err
	}
	lookups := m.Cache.Hits + m.Cache.Misses + m.Cache.Collapsed
	if lookups > 0 {
		res.set("qcache.hit_ratio", float64(m.Cache.Hits)/float64(lookups), int(lookups))
	} else {
		res.set("qcache.hit_ratio", 0, 0)
	}
	if res.Workload == wLiveMixed && m.Cache.Hits > 0 {
		res.set("qcache.carried_ratio", float64(m.Cache.CarriedHits)/float64(m.Cache.Hits), int(m.Cache.Hits))
	}
	return nil
}

func scrapeProm(c *child) (map[string]*obs.PromFamily, error) {
	body, status, err := getBody(context.Background(), c.url()+"/metrics.prom")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics.prom answered %d", status)
	}
	return obs.ParseProm(bytes.NewReader(body))
}

// promP50 merges every series of a histogram family whose labels
// include match and returns the merged median (in the family's unit,
// seconds here) and sample count.
func promP50(fams map[string]*obs.PromFamily, family string, match map[string]string) (float64, int) {
	f := fams[family]
	if f == nil {
		return 0, 0
	}
	var merged *obs.PromHist
	for _, h := range f.Hists {
		ok := true
		for k, v := range match {
			ok = ok && h.Labels[k] == v
		}
		if !ok {
			continue
		}
		if merged == nil {
			merged = &obs.PromHist{Bounds: h.Bounds, Cumulative: make([]float64, len(h.Cumulative))}
		}
		for i, c := range h.Cumulative {
			merged.Cumulative[i] += c
		}
		merged.Sum += h.Sum
		merged.Count += h.Count
	}
	if merged == nil {
		return 0, 0
	}
	return merged.Quantile(0.5), int(merged.Count)
}

// scrapeIngest records the child's account of its write path: epoch,
// fsync and backpressure counts, and the median of each epoch stage.
func scrapeIngest(c *child, res *result) error {
	m, err := scrapeMetrics(c)
	if err != nil {
		return err
	}
	if m.Ingest == nil {
		return fmt.Errorf("/metrics carries no ingest section")
	}
	res.set("ingest.epochs", float64(m.Ingest.Epochs), 1)
	res.set("ingest.throttled_batches", float64(m.Ingest.ThrottledBatches), 1)
	if m.Ingest.WAL != nil {
		res.set("ingest.wal_syncs", float64(m.Ingest.WAL.Syncs), 1)
	}
	fams, err := scrapeProm(c)
	if err != nil {
		return err
	}
	for stage, metric := range map[string]string{
		"wal": "ingest.stage_wal_us", "fold": "ingest.stage_fold_us", "csr": "ingest.stage_csr_us",
		"analytics": "ingest.stage_analytics_us", "checkpoint": "ingest.stage_checkpoint_us",
		"visible": "ingest.stage_visible_ms",
	} {
		p50, n := promP50(fams, "eg_epoch_stage_seconds", map[string]string{"stage": stage})
		if n == 0 {
			continue
		}
		scale := 1e6
		if metricByName[metric].Unit == "ms" {
			scale = 1e3
		}
		res.set(metric, p50*scale, n)
	}
	return nil
}
