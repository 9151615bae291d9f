package pg

// EncodeProps serializes a property record in the tagged CSV cell codec
// (see the format comment in csv.go). Keys are emitted in sorted order, so
// equal records always encode to equal strings — the property that lets the
// incremental-transformation layer use encoded records as change-detection
// fingerprints and stream them to change subscribers verbatim.
func EncodeProps(props map[string]Value) (string, error) {
	var pe propEncoder
	return pe.encode(props)
}

// DecodeProps parses a record serialized by EncodeProps.
func DecodeProps(s string) (map[string]Value, error) { return decodeProps(s) }
