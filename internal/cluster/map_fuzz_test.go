package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseMap parses arbitrary shard-map configs. Nothing may panic,
// and an accepted map renders and parses back to an equal value.
func FuzzParseMap(f *testing.F) {
	f.Add([]byte(`{"shards": 2, "nodes": [
		{"name": "w0", "url": "http://10.0.0.5:4800", "role": "worker", "shard": 0},
		{"name": "w1", "url": "http://10.0.0.6:4800", "role": "worker", "shard": 1},
		{"name": "f0", "url": "http://10.0.0.7:4800", "role": "follower", "shard": 0}]}`))
	f.Add([]byte(`{"shards": 1, "nodes": []}`))
	f.Add([]byte(`{"shards": 0}`))
	f.Add([]byte(`{"shards": 1, "nodes": [{"name": "w", "url": "u", "role": "worker", "shard": 1}]}`))
	f.Add([]byte(`{"shards": 1, "nodes": [{"name": "w", "url": "u", "role": "worker", "shard": 0},` +
		`{"name": "w", "url": "v", "role": "follower", "shard": 0}]}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ParseMap(in)
		if err != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted map does not render: %v", err)
		}
		back, err := ParseMap(out)
		if err != nil {
			t.Fatalf("rendered map does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("map changed across render and parse:\n%+v\n%+v", m, back)
		}
	})
}
