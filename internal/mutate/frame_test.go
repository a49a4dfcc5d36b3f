package mutate

import "roadsocial/internal/durable"

// appendRecord frames one record the way Journal.Append writes it.
func appendRecord(buf []byte, r Record) []byte {
	return durable.AppendFrame(buf, encodePayload(r))
}
