package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// renderManifest serializes a manifest snapshot as deterministic JSON.
func renderManifest(m manifest) ([]byte, error) {
	blob, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// parseManifest strictly decodes manifest.json, rejecting unknown
// fields, data after the value and unknown format versions so schema
// drift and damage fail loudly.
func parseManifest(blob []byte) (manifest, error) {
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return manifest{}, fmt.Errorf("corrupt manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return manifest{}, fmt.Errorf("corrupt manifest: data after the JSON value")
	}
	if m.Format != manifestFormat {
		return manifest{}, fmt.Errorf("unsupported manifest format %d (want %d)", m.Format, manifestFormat)
	}
	return m, nil
}

// timeFromNS converts a unix-nanosecond stamp, mapping 0 to the zero
// time.
func timeFromNS(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
