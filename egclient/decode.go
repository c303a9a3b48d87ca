package egclient

import (
	"bytes"
	"encoding/json"
)

// decodeInto decodes a response body into into, as json.Unmarshal
// does. A *json.RawMessage target takes one json.Valid scan and a copy
// of the body without its surrounding whitespace into the caller's
// slice; json.Unmarshal would scan the body twice to arrive at the same
// bytes. Invalid bodies go through json.Unmarshal so the error is its
// own.
func decodeInto(body []byte, into interface{}) error {
	if raw, ok := into.(*json.RawMessage); ok && raw != nil && json.Valid(body) {
		*raw = append((*raw)[:0], bytes.Trim(body, " \t\r\n")...)
		return nil
	}
	return json.Unmarshal(body, into)
}
