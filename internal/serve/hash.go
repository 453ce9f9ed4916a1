package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
)

// cacheKey is the canonical request hash: a SHA-256 digest of the
// normalized request. Fixed-size binary keys keep the sharded cache and
// the simulation flight table free of string headers and let the shard
// index be read straight out of the first eight digest bytes.
type cacheKey [32]byte

// canonicalKey hashes a normalized request into its cache key. The value
// must already be normalized (defaults filled, slices sorted): JSON
// encoding of a struct is deterministic given its field values, so equal
// normalized requests — however the client spelled them — map to the same
// key. The kind prefix ("predict", "simulate") keeps the two request
// spaces from ever colliding.
func canonicalKey(kind string, v any) cacheKey {
	data, err := json.Marshal(v)
	if err != nil {
		// Request types are plain structs of numbers and strings; an
		// encoding failure is a programming error, not an input error.
		panic(fmt.Sprintf("serve: canonicalKey(%s): %v", kind, err))
	}
	return sha256.Sum256(append([]byte(kind+"\x00"), data...))
}

// keySep separates fields in the hand-rolled predict encoding. It cannot
// appear in a float, an integer, or a validated model name, so the
// encoding stays injective without JSON's quoting.
const keySep = 0x1f

// predictKey is canonicalKey specialized for the predict hot path: the
// normalized, validated request is encoded with strconv into a stack
// buffer instead of going through reflection-driven json.Marshal. The
// 'g'/-1 float format is injective on float64, so two requests share a
// key exactly when their canonical forms are equal.
func predictKey(r PredictRequest) cacheKey {
	var arr [192]byte
	buf := append(arr[:0], "predict\x00"...)
	buf = strconv.AppendFloat(buf, r.P, 'g', -1, 64)
	buf = append(buf, keySep)
	buf = strconv.AppendFloat(buf, r.RTT, 'g', -1, 64)
	buf = append(buf, keySep)
	buf = strconv.AppendFloat(buf, r.T0, 'g', -1, 64)
	buf = append(buf, keySep)
	buf = strconv.AppendFloat(buf, r.Wm, 'g', -1, 64)
	buf = append(buf, keySep)
	buf = strconv.AppendInt(buf, int64(r.B), 10)
	for _, m := range r.Models {
		buf = append(buf, keySep)
		buf = append(buf, m...)
	}
	return sha256.Sum256(buf)
}
