package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"metacomm/internal/ldap"
)

//go:embed workloads.json
var workloadsJSON []byte

// workloadDef is one workload of workloads.json.
type workloadDef struct {
	Rate  float64            `json:"rate_ops_s"`
	Mix   map[string]float64 `json:"mix"`
	Keys  keyDef             `json:"keys"`
	Limit struct {
		Metric string  `json:"metric"`
		Ms     float64 `json:"ms"`
	} `json:"limit"`
	ReadbackRate float64 `json:"readback_rate_ops_s"`
	ProbeRate    float64 `json:"probe_rate_ops_s"`
}

type keyDef struct {
	Dist   string  `json:"dist"`
	HotSet int     `json:"hot_set"`
	S      float64 `json:"s"`
	V      float64 `json:"v"`
}

type definitions struct {
	Population struct {
		Persons int `json:"persons"`
	} `json:"population"`
	Workloads map[string]workloadDef `json:"workloads"`
}

func loadDefinitions() (*definitions, error) {
	var d definitions
	if err := json.Unmarshal(workloadsJSON, &d); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &d, nil
}

// Mix entries, in the fixed order the op stream draws them.
var mixOrder = []string{"search_base", "replace_roomNumber", "replace_messagingCOS", "add_person", "delete_added_person"}

// firstAdded is the number of the first person a run adds: extension
// 3-20000 and mailbox 20000 are outside the seeded 0..persons-1 range.
const firstAdded = 20000

type opKind uint8

const (
	opSearch opKind = iota
	opModify
	opAdd
	opDelete
)

func (k opKind) isWrite() bool { return k != opSearch }

func (k opKind) String() string {
	return [...]string{"search", "modify", "add", "delete"}[k]
}

// op is one scheduled LDAP operation on one person entry.
type op struct {
	at     time.Duration // scheduled send time, from the phase start
	kind   opKind
	num    int    // person number
	attr   string // modify: attribute replaced
	val    string // modify: new value
	target int    // generator connection index
	// A search checks that it returns exactly the entry, with these
	// attribute values, or, when absent, that the entry does not exist.
	want   map[string]string
	absent bool
}

func personDN(num int) string    { return fmt.Sprintf("cn=Load Person %05d,o=Lucent", num) }
func personCN(num int) string    { return fmt.Sprintf("Load Person %05d", num) }
func extensionOf(num int) string { return fmt.Sprintf("3-%05d", num) }
func mailboxOf(num int) string   { return fmt.Sprintf("%05d", num) }

// personAttrs is the add request body of a person (loadgen's shape).
func personAttrs(num int) []ldap.Attribute {
	return []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
		{Type: "cn", Values: []string{personCN(num)}},
		{Type: "sn", Values: []string{fmt.Sprintf("Person %05d", num)}},
		{Type: "definityExtension", Values: []string{extensionOf(num)}},
	}
}

// request builds the LDAP request of o.
func (o *op) request() ldap.Op {
	name := personDN(o.num)
	switch o.kind {
	case opModify:
		return &ldap.ModifyRequest{DN: name, Changes: []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: o.attr, Values: []string{o.val}}}}}
	case opAdd:
		return &ldap.AddRequest{DN: name, Attributes: personAttrs(o.num)}
	case opDelete:
		return &ldap.DeleteRequest{DN: name}
	}
	return &ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject}
}

// keyPicker draws person numbers for one stream.
type keyPicker func() int

func newKeyPicker(r *rand.Rand, k keyDef, persons int) keyPicker {
	if k.Dist == "zipf" {
		hot := k.HotSet
		if hot <= 0 || hot > persons {
			hot = persons
		}
		perm := r.Perm(persons)[:hot]
		z := rand.NewZipf(r, k.S, k.V, uint64(hot-1))
		return func() int { return perm[z.Uint64()] }
	}
	return func() int { return r.Intn(persons) }
}

// streamState carries what a run's successive streams share: the value
// counter (every written value is distinct), the add numbering, and the
// persons added and not yet deleted.
type streamState struct {
	nextValue int
	nextAdd   int
	added     []int
	// last maps a person to the last value written per attribute, so a
	// read-back knows what to expect.
	last map[int]map[string]string
	// touched lists the persons written, in first-write order.
	touched  []int
	touchedS map[int]bool
	deleted  map[int]bool
}

func newStreamState() *streamState {
	return &streamState{nextAdd: firstAdded, last: map[int]map[string]string{},
		touchedS: map[int]bool{}, deleted: map[int]bool{}}
}

func (s *streamState) touch(num int) {
	if !s.touchedS[num] {
		s.touchedS[num] = true
		s.touched = append(s.touched, num)
	}
}

// stream generates the Poisson op stream of a workload's mix at rate for
// dur, all aimed at connection target.
func stream(r *rand.Rand, w workloadDef, persons int, rate float64, dur time.Duration, target int, st *streamState) []op {
	keys := newKeyPicker(r, w.Keys, persons)
	var ops []op
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return ops
		}
		u := r.Float64()
		kind := ""
		for _, name := range mixOrder {
			if p := w.Mix[name]; u < p {
				kind = name
				break
			} else {
				u -= p
			}
		}
		o := op{at: at, target: target}
		switch kind {
		case "replace_roomNumber", "replace_messagingCOS":
			o.kind, o.num = opModify, keys()
			st.nextValue++
			if kind == "replace_roomNumber" {
				o.attr, o.val = "roomNumber", fmt.Sprintf("Rm-%d", st.nextValue)
			} else {
				o.attr, o.val = "messagingCOS", fmt.Sprintf("cos-%d", st.nextValue)
			}
			if st.last[o.num] == nil {
				st.last[o.num] = map[string]string{}
			}
			st.last[o.num][o.attr] = o.val
		case "delete_added_person":
			if len(st.added) > 0 {
				i := r.Intn(len(st.added))
				o.kind, o.num = opDelete, st.added[i]
				st.added[i] = st.added[len(st.added)-1]
				st.added = st.added[:len(st.added)-1]
				st.deleted[o.num] = true
				break
			}
			fallthrough // nothing to delete yet: add instead
		case "add_person":
			o.kind, o.num = opAdd, st.nextAdd
			st.nextAdd++
			st.added = append(st.added, o.num)
		default:
			o.kind, o.num = opSearch, keys()
		}
		if o.kind.isWrite() {
			st.touch(o.num)
		}
		ops = append(ops, o)
	}
}

// readStream schedules base searches of the given persons at rate, in a
// seeded order; expect, when set, gives what each search must find.
func readStream(r *rand.Rand, nums []int, rate float64, target int, expect func(num int) (want map[string]string, absent bool)) []op {
	order := r.Perm(len(nums))
	ops := make([]op, 0, len(nums))
	t := 0.0
	for _, i := range order {
		t += r.ExpFloat64() / rate
		o := op{at: time.Duration(t * float64(time.Second)), kind: opSearch, num: nums[i], target: target}
		if expect != nil {
			o.want, o.absent = expect(nums[i])
		}
		ops = append(ops, o)
	}
	return ops
}
