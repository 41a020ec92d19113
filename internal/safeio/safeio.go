// Package safeio is the pipeline's durable-I/O layer: atomic file
// replacement that survives crashes, and CRC32-stamped JSON records that
// make torn or silently corrupted files *detectable* instead of
// *believable*.
//
// The durability contract, relied on by the result cache and the run
// manifest:
//
//   - WriteFileAtomic never leaves a half-written file at the final
//     path: data goes to a temp file in the same directory, is fsynced,
//     renamed over the destination, and the directory is fsynced so the
//     rename itself survives a crash. Every error path removes the temp
//     file.
//   - MarshalRecord/UnmarshalRecord wrap a JSON payload in a versioned
//     envelope carrying a CRC32 (Castagnoli) of the compact payload
//     bytes. A reader that sees a checksum mismatch — a torn write that
//     did reach disk, a flipped bit — gets ErrCorrupt and must treat
//     the record as missing (recompute), never serve it. Bytes without
//     the envelope, naked JSON included, are ErrCorrupt too.
//
// Chaos integration: WriteFileAtomic passes the outgoing bytes through
// the "safeio.write" data injection point, so a seeded soak run can
// tear or bit-flip exactly the records this package promises to detect.
package safeio

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
)

// PointWrite is the data injection point every durable write passes
// through: chaos may truncate the bytes (torn write, reported as an
// error) or flip a bit (silent corruption, caught only by the CRC).
var PointWrite = chaos.Register("safeio.write", fmerr.StageIO)

// WriteFileAtomic durably replaces path with data: temp file in the
// same directory → write → fsync → close → rename → fsync directory.
// The temp file is removed on every error path. The context is used for
// fault injection only; the write itself is not interruptible.
func WriteFileAtomic(ctx context.Context, path string, data []byte, perm fs.FileMode) error {
	data, injErr := chaos.Mutate(ctx, PointWrite, data)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmerr.Wrap(fmerr.StageIO, "create-temp", err)
	}
	tmpName := tmp.Name()
	fail := func(op string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmerr.Wrap(fmerr.StageIO, op, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod-temp", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write-temp", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsync-temp", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmerr.Wrap(fmerr.StageIO, "close-temp", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmerr.Wrap(fmerr.StageIO, "rename", err)
	}
	if err := syncDir(dir); err != nil {
		return fmerr.Wrap(fmerr.StageIO, "fsync-dir", err)
	}
	// An injected short write completed the atomic dance with truncated
	// bytes — the torn record is on disk at the final path, exactly like
	// a crash mid-write — and the caller learns the write failed.
	if injErr != nil {
		return fmerr.Wrap(fmerr.StageIO, "write", injErr)
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- CRC-stamped records ----------------------------------------------------

// ErrCorrupt marks bytes that are not an intact record: no envelope at
// all, an unknown envelope version, or a checksum that does not match the
// payload. Readers must treat the record as missing — recompute, never
// serve it.
var ErrCorrupt = errors.New("safeio: record corrupt")

// recordVersion is the current envelope version.
const recordVersion = 1

// castagnoli is the CRC32-C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type envelope struct {
	V       int             `json:"v"`
	CRC32   string          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// Record layout. MarshalRecord writes exactly
//
//	{"v":1,"crc32":"<8 lowercase hex digits>","payload":<payload>}\n
//
// — json.Marshal's encoding of the envelope — with the payload as
// json.Marshal wrote it, so the stored payload bytes are the compact bytes
// the CRC covers.
const (
	recordHead  = `{"v":1,"crc32":"`
	payloadHead = `","payload":`
)

// MarshalRecord encodes v as JSON and wraps it in a compact version-1
// envelope stamped with the CRC32-C of the compact payload bytes.
func MarshalRecord(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmerr.Wrap(fmerr.StageIO, "marshal-record", err)
	}
	out := make([]byte, 0, len(recordHead)+8+len(payloadHead)+len(payload)+2)
	out = append(out, recordHead...)
	out = appendCRC(out, payload)
	out = append(out, payloadHead...)
	out = append(out, payload...)
	return append(out, "}\n"...), nil
}

// MarshalRecordIndent is MarshalRecord indented by two spaces per level,
// for records people read: the run manifest and benchmark reports. The CRC
// covers the compact payload, so both layouts verify alike.
func MarshalRecordIndent(v any) ([]byte, error) {
	rec, err := MarshalRecord(v)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, rec, "", "  "); err != nil {
		return nil, fmerr.Wrap(fmerr.StageIO, "marshal-record", err)
	}
	return out.Bytes(), nil
}

// appendCRC appends the CRC32-C of payload as 8 lowercase hex digits.
func appendCRC(dst, payload []byte) []byte {
	const digits = "0123456789abcdef"
	sum := crc32.Checksum(payload, castagnoli)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[sum>>shift&0xf])
	}
	return dst
}

// UnmarshalRecord verifies data's envelope and decodes its payload into
// v. It returns ErrCorrupt when data is not an envelope (naked JSON
// included), the version is unknown or the checksum does not verify. The
// CRC is computed over the *compacted* payload bytes, so re-indenting a
// record on disk does not invalidate it.
//
// A record in MarshalRecord's compact layout whose stamp matches its
// payload bytes as stored is decoded in one pass. Every other input —
// indented or re-indented records, other versions, checksum mismatches,
// payloads that fail to decode — takes the full verifying path, which
// parses the envelope, compacts the payload and checks it before
// decoding. Neither path decodes bytes whose checksum failed.
func UnmarshalRecord(data []byte, v any) error {
	if payload, ok := compactPayload(data); ok && json.Unmarshal(payload, v) == nil {
		return nil
	}
	return unmarshalVerified(data, v)
}

// unmarshalVerified is UnmarshalRecord for any layout: it parses the
// envelope, checks its version, compacts the payload, checks the CRC and
// only then decodes the payload into v.
func unmarshalVerified(data []byte, v any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.V != recordVersion {
		return fmt.Errorf("%w: unknown record version %d", ErrCorrupt, env.V)
	}
	if len(env.Payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return fmt.Errorf("%w: payload not valid JSON: %v", ErrCorrupt, err)
	}
	sum := fmt.Sprintf("%08x", crc32.Checksum(compact.Bytes(), castagnoli))
	if sum != env.CRC32 {
		return fmt.Errorf("%w: crc %s != stamped %s", ErrCorrupt, sum, env.CRC32)
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return fmt.Errorf("%w: payload decode: %v", ErrCorrupt, err)
	}
	return nil
}

// compactPayload returns the payload of a record laid out exactly as
// MarshalRecord writes it (the trailing newline optional), and whether its
// stamp equals the CRC32-C of those payload bytes.
func compactPayload(data []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(recordHead))
	if !ok || len(rest) < 8 {
		return nil, false
	}
	stamp := rest[:8]
	rest, ok = bytes.CutPrefix(rest[8:], []byte(payloadHead))
	if !ok {
		return nil, false
	}
	payload, ok := bytes.CutSuffix(bytes.TrimSuffix(rest, []byte("\n")), []byte("}"))
	if !ok || len(payload) == 0 {
		return nil, false
	}
	var sum [8]byte
	return payload, bytes.Equal(appendCRC(sum[:0], payload), stamp)
}
