package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"metacomm/internal/device/msgplat"
	"metacomm/internal/device/pbx"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// checkDevices checks, through the PBX and messaging-platform admin
// sessions, that every person the run wrote holds on both devices what the
// directory holds (the read-back checked the directory side): the last
// roomNumber as the station's Room, the last messagingCOS as the mailbox
// COS, added persons present, deleted persons absent.
func checkDevices(s *server, st *streamState) error {
	pc, err := pbx.DialCommandOnly(s.pbx, "perfbench", pbx.DeviceName)
	if err != nil {
		return err
	}
	defer pc.Close()
	mc, err := msgplat.DialCommandOnly(s.mp, "perfbench")
	if err != nil {
		return err
	}
	defer mc.Close()
	for _, num := range st.touched {
		station, perr := pc.Get(extensionOf(num))
		mbox, merr := mc.Get(mailboxOf(num))
		if st.deleted[num] {
			if perr == nil || merr == nil {
				return fmt.Errorf("deleted %s still on a device (pbx err %v, msgplat err %v)", personDN(num), perr, merr)
			}
			continue
		}
		if perr != nil || merr != nil {
			return fmt.Errorf("%s: pbx %v, msgplat %v", personDN(num), perr, merr)
		}
		if got := station.First("Name"); got != personCN(num) {
			return fmt.Errorf("%s: pbx station name %q", personDN(num), got)
		}
		if got := mbox.First("Name"); got != personCN(num) {
			return fmt.Errorf("%s: mailbox name %q", personDN(num), got)
		}
		if v, ok := st.last[num]["roomNumber"]; ok && station.First("Room") != v {
			return fmt.Errorf("%s: pbx Room %q, directory roomNumber %q", personDN(num), station.First("Room"), v)
		}
		if v, ok := st.last[num]["messagingCOS"]; ok && mbox.First("COS") != v {
			return fmt.Errorf("%s: mailbox COS %q, directory messagingCOS %q", personDN(num), mbox.First("COS"), v)
		}
	}
	return nil
}

// readback gives what a read-back search of num must find.
func (st *streamState) readback(num int) (map[string]string, bool) {
	if st.deleted[num] {
		return nil, true
	}
	return st.last[num], false
}

// tree returns a canonical dump of the whole directory under o=Lucent, one
// line per entry, sorted.
func tree(addr string) ([]string, error) {
	c, err := ldapclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	es, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(es))
	for _, e := range es {
		attrs := make([]string, 0, len(e.Attributes))
		for _, a := range e.Attributes {
			attrs = append(attrs, strings.ToLower(a.Type)+"="+strings.Join(a.Values, "\x00"))
		}
		sort.Strings(attrs)
		out = append(out, strings.ToLower(e.DN)+"\x01"+strings.Join(attrs, "\x01"))
	}
	sort.Strings(out)
	return out, nil
}

// awaitSameTrees polls two nodes until their trees are identical, failing
// after timeout with the first difference.
func awaitSameTrees(a, b string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ta, err := tree(a)
		if err != nil {
			return err
		}
		tb, err := tree(b)
		if err != nil {
			return err
		}
		diff := firstDiff(ta, tb)
		if diff == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trees differ after %s: %s", timeout, diff)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		switch {
		case i >= len(a):
			return "only on B: " + strings.ReplaceAll(b[i], "\x01", " ")
		case i >= len(b):
			return "only on A: " + strings.ReplaceAll(a[i], "\x01", " ")
		case a[i] != b[i]:
			return fmt.Sprintf("A has %q, B has %q", strings.ReplaceAll(a[i], "\x01", " "), strings.ReplaceAll(b[i], "\x01", " "))
		}
	}
	return ""
}
