package tech

// JSON export of technology descriptors, the form `techinfo -json`
// prints: the stand-in for the LEF/ITF/ITRS technology inputs the
// paper's flow reads.

import (
	"encoding/json"
	"io"
)

// WriteJSON serializes the descriptor with indentation.
func (t *Technology) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// MarshalJSON flattens the Flavor enum into a string for
// readability.
func (f Flavor) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.String())
}
