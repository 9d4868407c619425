package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// crash abandons st the way a killed process leaves it: dirty pool
// frames and unflushed WAL bytes are lost, while everything already
// written stays in the files (the OS cache survives a process death).
// It closes every WAL and segment handle without flushing or fsyncing,
// so long sequences of crashes do not leak file descriptors.
func crash(st *Store) {
	sh := st.Shard
	sh.closed.Store(true)
	sh.mu.Lock()
	sh.wal.mu.Lock()
	if sh.wal.f != nil {
		sh.wal.f.Close()
		sh.wal.f, sh.wal.w = nil, nil
	}
	sh.wal.mu.Unlock()
	sh.fmu.Lock()
	for seq, f := range sh.files {
		f.Close()
		delete(sh.files, seq)
	}
	sh.fmu.Unlock()
	sh.mu.Unlock()
}

// The model's operations. A program is a byte string read two bytes at
// a time: an op byte (mod len(modelOps)) and an argument byte that
// picks the key and sizes the value. Puts and deletes outnumber the
// heavier ops so a program builds up state between restarts.
const (
	doPut = iota
	doOverwrite
	doJumbo
	doDelete
	doGet
	doFlush
	doCompact
	doReopen
	doCrash
)

var modelOps = []int{
	doPut, doPut, doPut, doPut,
	doOverwrite, doOverwrite,
	doJumbo,
	doDelete, doDelete,
	doGet,
	doFlush,
	doCompact,
	doReopen,
	doCrash,
}

var modelOpNames = [...]string{"put", "overwrite", "jumbo", "delete", "get", "flush", "compact", "reopen", "crash"}

// modelKeys bounds the key space, so puts overwrite and deletes hit
// live keys often.
const modelKeys = 24

func modelKey(i int) string { return fmt.Sprintf("model-%02d", i%modelKeys) }

// modelValue is a value unique to its step: a step stamp followed by
// filler.
func modelValue(step, size int) []byte {
	v := bytes.Repeat([]byte{byte(step), byte(step >> 8), 0x5a}, size/3+2)[:size]
	binary.LittleEndian.PutUint32(v, uint32(step))
	return v
}

// storeModel runs a program against a store on smallOpts (512 B pages,
// 16 frames: rotation, eviction and spanning pages all happen) and
// checks the store against a map oracle after every operation.
type storeModel struct {
	t      testing.TB
	dir    string
	st     *Store
	oracle map[string][]byte
	ops    []string
}

func runStoreModel(t testing.TB, prog []byte) {
	m := &storeModel{t: t, dir: t.TempDir(), oracle: map[string][]byte{}}
	m.open()
	defer func() {
		if m.st != nil {
			crash(m.st)
		}
	}()
	for step := 0; len(prog) >= 2; step++ {
		op, arg := modelOps[int(prog[0])%len(modelOps)], int(prog[1])
		prog = prog[2:]
		m.apply(step, op, arg)
		m.check()
	}
}

func (m *storeModel) fail(format string, args ...any) {
	m.t.Helper()
	trace := m.ops
	if len(trace) > 24 {
		trace = trace[len(trace)-24:]
	}
	m.t.Fatalf("after %d ops (last: %s): %s", len(m.ops), strings.Join(trace, " "), fmt.Sprintf(format, args...))
}

func (m *storeModel) open() {
	st, err := Open(smallOpts(m.dir))
	if err != nil {
		m.fail("open: %v", err)
	}
	m.st = st
}

func (m *storeModel) apply(step, op, arg int) {
	m.t.Helper()
	key := modelKey(arg)
	switch op {
	case doOverwrite:
		if live := m.liveKeys(); len(live) > 0 {
			key = live[arg%len(live)]
		}
		fallthrough
	case doPut, doJumbo:
		size := 4 + arg%120
		if op == doJumbo {
			size = 600 + 8*arg // 2–6 pages of 512 B
		}
		v := modelValue(step, size)
		if err := m.st.Put(key, v); err != nil {
			m.fail("put %s: %v", key, err)
		}
		m.oracle[key] = v
	case doDelete:
		if err := m.st.Delete(key); err != nil {
			m.fail("delete %s: %v", key, err)
		}
		delete(m.oracle, key)
	case doGet:
		// check reads every key after each op anyway; a get reads its
		// key once more first.
		m.checkKey(key)
	case doFlush:
		if err := m.st.Flush(); err != nil {
			m.fail("flush: %v", err)
		}
	case doCompact:
		if err := m.st.Compact(); err != nil {
			m.fail("compact: %v", err)
		}
	case doReopen:
		if err := m.st.Close(); err != nil {
			m.fail("close: %v", err)
		}
		m.st = nil
		m.open()
	case doCrash:
		crash(m.st)
		m.st = nil
		m.open()
	}
	m.ops = append(m.ops, fmt.Sprintf("%s(%s)", modelOpNames[op], key))
}

func (m *storeModel) liveKeys() []string {
	keys := make([]string, 0, len(m.oracle))
	for k := range m.oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *storeModel) check() {
	m.t.Helper()
	if got, want := m.st.Len(), len(m.oracle); got != want {
		m.fail("Len %d, oracle %d", got, want)
	}
	for i := 0; i < modelKeys; i++ {
		m.checkKey(modelKey(i))
	}
}

func (m *storeModel) checkKey(key string) {
	m.t.Helper()
	got, ok, err := m.st.Get(key)
	if err != nil {
		m.fail("get %s: %v", key, err)
	}
	want, live := m.oracle[key]
	switch {
	case ok != live:
		m.fail("get %s: present=%v, oracle %v", key, ok, live)
	case live && !bytes.Equal(got, want):
		m.fail("get %s: %d bytes, oracle %d (value of another write)", key, len(got), len(want))
	}
}

// modelProgram is a seeded program of n operations.
func modelProgram(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	prog := make([]byte, 2*n)
	for i := range prog {
		prog[i] = byte(r.Uint32())
	}
	return prog
}

// TestStoreModel runs seeded operation sequences against the map
// oracle: puts, overwrites, jumbo puts, deletes, gets, checkpoints,
// compactions, clean restarts and crashes.
func TestStoreModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStoreModel(t, modelProgram(seed, 200))
		})
	}
}

// FuzzStoreModel drives the model from fuzz bytes.
func FuzzStoreModel(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(modelProgram(seed, 40))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*200 {
			prog = prog[:2*200]
		}
		runStoreModel(t, prog)
	})
}
