package wireclient

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func reqRoundTrip(t *testing.T, r Request) Request {
	t.Helper()
	buf := AppendRequest(nil, &r)
	n, used := binary.Uvarint(buf)
	if used <= 0 || int(n) != len(buf)-used {
		t.Fatalf("frame length %d vs payload %d", n, len(buf)-used)
	}
	got, err := DecodeRequest(buf[used:])
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpPut, Key: "k", Value: []byte("v")},
		{ID: 2, Op: OpPut, Key: "empty-value", Value: []byte{}},
		{ID: 1 << 40, Op: OpGet, Key: "big-id"},
		{ID: 3, Op: OpGet, Flags: FlagLocal, Key: "local"},
		{ID: 4, Op: OpMultiGet, Keys: []string{"a", "b", "c"}},
		{ID: 5, Op: OpMultiGet, Keys: []string{}},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpPut, Key: "binary", Value: []byte{0, 1, 2, 0xff}},
		{ID: 8, Op: OpDelete, Key: "gone"},
		{ID: 9, Op: OpGet, Flags: FlagReadIndex, Key: "read-index"},
	}
	for i, r := range cases {
		got := reqRoundTrip(t, r)
		if got.ID != r.ID || got.Op != r.Op || got.Flags != r.Flags || got.Key != r.Key {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, got, r)
		}
		if !bytes.Equal(got.Value, r.Value) {
			t.Fatalf("case %d: value %q vs %q", i, got.Value, r.Value)
		}
		if len(got.Keys) != len(r.Keys) || (len(r.Keys) > 0 && !reflect.DeepEqual(got.Keys, r.Keys)) {
			t.Fatalf("case %d: keys %v vs %v", i, got.Keys, r.Keys)
		}
	}
}

func respRoundTrip(t *testing.T, r Response) Response {
	t.Helper()
	buf := AppendResponse(nil, &r)
	n, used := binary.Uvarint(buf)
	if used <= 0 || int(n) != len(buf)-used {
		t.Fatalf("frame length %d vs payload %d", n, len(buf)-used)
	}
	got, err := DecodeResponse(buf[used:])
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return got
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Value: []byte("v")},
		{ID: 2, Op: OpGet, Status: StatusOK, Value: []byte{}},
		{ID: 3, Op: OpGet, Status: StatusNotFound},
		{ID: 4, Op: OpPut, Status: StatusOK},
		{ID: 5, Op: OpPut, Status: StatusNotLeader, Leader: 3},
		{ID: 6, Op: OpPut, Status: StatusNotLeader, Leader: 0},
		{ID: 7, Op: OpGet, Status: StatusErr, Err: "boom"},
		{ID: 8, Op: OpMultiGet, Status: StatusOK,
			Multi: [][]byte{[]byte("x"), nil, []byte("")},
			Found: []bool{true, false, true}},
		{ID: 9, Op: OpPing, Status: StatusOK},
		{ID: 10, Op: OpDelete, Status: StatusOK},
		{ID: 11, Op: OpDelete, Status: StatusNotLeader, Leader: 2},
	}
	for i, r := range cases {
		got := respRoundTrip(t, r)
		if got.ID != r.ID || got.Op != r.Op || got.Status != r.Status || got.Leader != r.Leader || got.Err != r.Err {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, got, r)
		}
		if !bytes.Equal(got.Value, r.Value) {
			t.Fatalf("case %d: value %q vs %q", i, got.Value, r.Value)
		}
		if len(got.Multi) != len(r.Multi) {
			t.Fatalf("case %d: multi %v vs %v", i, got.Multi, r.Multi)
		}
		for j := range r.Multi {
			if !bytes.Equal(got.Multi[j], r.Multi[j]) || got.Found[j] != r.Found[j] {
				t.Fatalf("case %d key %d: %q/%v vs %q/%v", i, j, got.Multi[j], got.Found[j], r.Multi[j], r.Found[j])
			}
		}
	}
}

// Every truncation of a valid payload must come back as a clean error —
// never a panic, never a bogus accept that re-encodes differently.
func TestTruncatedPayloads(t *testing.T) {
	for _, req := range []Request{
		{ID: 300, Op: OpPut, Key: "key", Value: []byte("value")},
		{ID: 301, Op: OpDelete, Key: "key"},
		{ID: 302, Op: OpGet, Flags: FlagReadIndex, Key: "key"},
	} {
		buf := AppendRequest(nil, &req)
		_, used := binary.Uvarint(buf)
		payload := buf[used:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeRequest(payload[:cut]); err == nil {
				t.Fatalf("%s request truncated at %d decoded", req.Op, cut)
			}
		}
	}
	for _, resp := range []Response{
		{ID: 300, Op: OpMultiGet, Status: StatusOK,
			Multi: [][]byte{[]byte("abc"), []byte("def")}, Found: []bool{true, true}},
		{ID: 301, Op: OpDelete, Status: StatusNotLeader, Leader: 3},
	} {
		rb := AppendResponse(nil, &resp)
		_, used := binary.Uvarint(rb)
		payload := rb[used:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeResponse(payload[:cut]); err == nil {
				t.Fatalf("%s response truncated at %d decoded", resp.Op, cut)
			}
		}
	}
}

// Both decoders share one notion of a defined op: zero and the first
// value past OpDelete are rejected in requests and responses alike.
func TestUndefinedOpRejected(t *testing.T) {
	for _, op := range []Op{0, OpDelete + 1} {
		var b []byte
		b = binary.AppendUvarint(b, 1) // id
		b = append(b, byte(op), 0)
		if _, err := DecodeRequest(b); err == nil {
			t.Fatalf("request with %s decoded", op)
		}
		if _, err := DecodeResponse(b); err == nil {
			t.Fatalf("response with %s decoded", op)
		}
	}
}

// A multiget count that promises more keys than the payload can hold
// must be rejected up front, not alloc-bombed.
func TestMultiGetCountOverflow(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 1) // id
	b = append(b, byte(OpMultiGet), 0)
	b = binary.AppendUvarint(b, 1<<40) // absurd count
	if _, err := DecodeRequest(b); err == nil {
		t.Fatal("absurd multiget count accepted")
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []Request{
		{ID: 1, Op: OpPut, Key: "k", Value: []byte("v")},
		{ID: 2, Op: OpGet, Key: "k"},
		{ID: 3, Op: OpMultiGet, Keys: []string{"a", "bb"}},
		{ID: 4, Op: OpPing},
		{ID: 5, Op: OpDelete, Key: "k"},
		{ID: 6, Op: OpGet, Flags: FlagReadIndex, Key: "k"},
	} {
		buf := AppendRequest(nil, &r)
		_, used := binary.Uvarint(buf)
		f.Add(buf[used:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode canonically.
		re := AppendRequest(nil, &r)
		_, used := binary.Uvarint(re)
		r2, err := DecodeRequest(re[used:])
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if r.ID != r2.ID || r.Op != r2.Op || r.Key != r2.Key || !bytes.Equal(r.Value, r2.Value) {
			t.Fatalf("decode/encode/decode mismatch: %+v vs %+v", r, r2)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Value: []byte("v")},
		{ID: 2, Op: OpPut, Status: StatusNotLeader, Leader: 2},
		{ID: 3, Op: OpMultiGet, Status: StatusOK, Multi: [][]byte{[]byte("v")}, Found: []bool{true}},
		{ID: 4, Op: OpGet, Status: StatusErr, Err: "x"},
		{ID: 5, Op: OpDelete, Status: StatusOK},
		{ID: 6, Op: OpDelete, Status: StatusNotLeader, Leader: 1},
	} {
		buf := AppendResponse(nil, &r)
		_, used := binary.Uvarint(buf)
		f.Add(buf[used:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re := AppendResponse(nil, &r)
		_, used := binary.Uvarint(re)
		r2, err := DecodeResponse(re[used:])
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if r.ID != r2.ID || r.Status != r2.Status || r.Leader != r2.Leader || !bytes.Equal(r.Value, r2.Value) {
			t.Fatalf("decode/encode/decode mismatch: %+v vs %+v", r, r2)
		}
	})
}
