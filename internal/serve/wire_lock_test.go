package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// Wire-lock fixtures: fixed binary payloads and the JSON every body that
// carries them must marshal to. The payloads include bytes whose standard
// base64 holds '+' and '/' and needs padding, so a switch to another
// alphabet or to unpadded output shows. The literals are the bytes clients,
// peer nodes and stores already hold; they must not change.
var (
	lockRelin  = []byte{0xD5, 0xFB, 0xFF, 0x00}
	lockRot    = []byte{0xD6, 0x01, 0x02}
	lockSecret = []byte{0xE2, 0xFE}
	lockCt     = []byte{0xC1, 0xFB, 0xEF, 0xBE, 0x7F}
	lockCt2    = []byte{0xC1, 0x00}
	lockAt     = time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
)

// setBlob stores data in a binary field, whether the field carries raw bytes
// or their base64 text; setBlobs does the same for a map of them. Taking
// either Go type lets the same test pin the wire of the string-typed fields
// these bodies had before and of the []byte fields they have now.
func setBlob(field any, data []byte) {
	switch f := field.(type) {
	case *[]byte:
		*f = data
	case *string:
		*f = base64.StdEncoding.EncodeToString(data)
	default:
		panic("setBlob: unsupported field type " + reflect.TypeOf(field).String())
	}
}

func setBlobs(field any, data map[string][]byte) {
	switch f := field.(type) {
	case *map[string][]byte:
		*f = data
	case *map[string]string:
		*f = map[string]string{}
		for k, v := range data {
			(*f)[k] = base64.StdEncoding.EncodeToString(v)
		}
	default:
		panic("setBlobs: unsupported field type " + reflect.TypeOf(field).String())
	}
}

// blob reads a binary field back as bytes.
func blob(t *testing.T, field any) []byte {
	t.Helper()
	switch f := field.(type) {
	case []byte:
		return f
	case string:
		data, err := base64.StdEncoding.DecodeString(f)
		if err != nil {
			t.Fatalf("field holds malformed base64 %q: %v", f, err)
		}
		return data
	}
	t.Fatalf("blob: unsupported field type %T", field)
	return nil
}

// TestWireLock: each body that carries keys or ciphertexts marshals to the
// recorded JSON, and the recorded JSON decodes back to the same payload
// bytes and re-marshals unchanged.
func TestWireLock(t *testing.T) {
	demo := ContextBundle{ProgramID: "p1", Demo: true, CreatedAt: lockAt}
	setBlob(&demo.Relin, lockRelin)
	setBlob(&demo.RotationSet, lockRot)
	setBlob(&demo.Secret, lockSecret)
	client := ContextBundle{ProgramID: "p1", CreatedAt: lockAt}
	setBlob(&client.Relin, lockRelin)
	setBlob(&client.RotationSet, lockRot)
	keys := &EvalKeysJSON{}
	setBlob(&keys.Relin, lockRelin)
	setBlob(&keys.RotationSet, lockRot)
	put := HandlePutRequest{ContextID: "c1"}
	setBlob(&put.Cipher, lockCt)
	batch := ExecuteBatch{Handles: map[string]string{"z": "h1"}, Plain: map[string][]float64{"w": {1.5}}}
	setBlobs(&batch.Cipher, map[string][]byte{"x": lockCt, "y": lockCt2})
	var inline InputBinding
	setBlob(&inline.Cipher, lockCt)
	two := 2
	result := BatchResult{Stats: BatchStats{Instructions: 3, Workers: 1, WallMillis: 0.25}}
	setBlobs(&result.Cipher, map[string][]byte{"out": lockCt})

	bundleJSON := `{"program_id":"p1","demo":true,"created_at":"2026-01-02T03:04:05.0000006Z","relin":"1fv/AA==","rotation_set":"1gEC","secret":"4v4="}`
	cases := []struct {
		name string
		v    any
		lit  string
	}{
		{"demo bundle", &demo, bundleJSON},
		{"client bundle", &client, `{"program_id":"p1","created_at":"2026-01-02T03:04:05.0000006Z","relin":"1fv/AA==","rotation_set":"1gEC"}`},
		{"keys request", &ContextRequest{ProgramID: "p1", ContextID: "c1", Keys: keys},
			`{"program_id":"p1","context_id":"c1","keys":{"relin":"1fv/AA==","rotation_set":"1gEC"}}`},
		{"bundle request", &ContextRequest{ProgramID: "p1", ContextID: "c1", Bundle: &demo},
			`{"program_id":"p1","context_id":"c1","bundle":` + bundleJSON + `}`},
		{"handle put", &put, `{"context_id":"c1","cipher":"wfvvvn8="}`},
		{"batch", &batch, `{"cipher":{"x":"wfvvvn8=","y":"wQA="},"handles":{"z":"h1"},"plain":{"w":[1.5]}}`},
		{"inline binding", &inline, `{"cipher":"wfvvvn8="}`},
		{"stage binding", &InputBinding{Stage: &two, Output: "out"}, `{"stage":2,"output":"out"}`},
		{"batch result", &result, `{"cipher":{"out":"wfvvvn8="},"stats":{"instructions":3,"workers":1,"wall_ms":0.25}}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.lit {
			t.Errorf("%s marshals to\n  %s\nwant\n  %s", c.name, got, c.lit)
		}
		decoded := reflect.New(reflect.TypeOf(c.v).Elem())
		if err := json.Unmarshal([]byte(c.lit), decoded.Interface()); err != nil {
			t.Fatalf("%s: decoding the recorded literal: %v", c.name, err)
		}
		if !reflect.DeepEqual(decoded.Interface(), c.v) {
			t.Errorf("%s: the recorded literal decodes to %+v, want %+v", c.name, decoded.Elem(), reflect.ValueOf(c.v).Elem())
		}
	}

	// The decoded payloads are the fixed bytes, read through each type's own
	// fields.
	var b ContextBundle
	if err := json.Unmarshal([]byte(bundleJSON), &b); err != nil {
		t.Fatal(err)
	}
	var rs BatchResult
	if err := json.Unmarshal([]byte(cases[len(cases)-1].lit), &rs); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]byte{
		"relin":         {blob(t, b.Relin), lockRelin},
		"rotation_set":  {blob(t, b.RotationSet), lockRot},
		"secret":        {blob(t, b.Secret), lockSecret},
		"result cipher": {blob(t, rs.Cipher["out"]), lockCt},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s decodes to %x, want %x", name, pair[0], pair[1])
		}
	}
}
