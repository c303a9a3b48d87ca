package server

import (
	"fmt"
	"net/url"
)

// ComputeValue runs endpoint's decoder and compute on s's current
// graph, bypassing the cache: the value whose json.Marshal a cached
// body must be, byte for byte.
func ComputeValue(s *Server, endpoint string, q url.Values) (interface{}, error) {
	ep, ok := cachedDecoders[endpoint]
	if !ok {
		return nil, fmt.Errorf("no such endpoint %q", endpoint)
	}
	p := s.paramsFor(q)
	_, compute := ep.decode(s, p)
	if p.err != nil {
		return nil, p.err
	}
	return compute()
}
