package server

import "net/url"

// ComputeValue runs endpoint's decoder and compute on s's current
// graph, bypassing the cache: the value whose json.Marshal a cached
// body must be, byte for byte.
func ComputeValue(s *Server, endpoint string, q url.Values) (interface{}, error) {
	_, _, compute, err := s.decodeCached(endpoint, q)
	if err != nil {
		return nil, err
	}
	return compute()
}
