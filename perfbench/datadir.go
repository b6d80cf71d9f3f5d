package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/mcschema"
)

// personTemplate returns the directory image the product gives a person
// added through LTAP: an in-memory system adds person 0 and its stored
// attributes are read back. Values carry the person number as "00000".
func personTemplate() (map[string][]string, error) {
	sys, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	c, err := sys.Client()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Add(personDN(0), personAttrs(0)); err != nil {
		return nil, err
	}
	name, _ := dn.Parse(personDN(0))
	e, err := sys.DIT.Get(name)
	if err != nil {
		return nil, err
	}
	return e.Attrs.Map(), nil
}

// buildDataDir writes a durable directory holding the suffix and persons
// 0..n-1, each with the image an LTAP add gives it, stamped by node. The
// devices are not part of a data dir: a server started on it fills them in
// its startup synchronization.
func buildDataDir(dir string, n int, node uint32) error {
	tmpl, err := personTemplate()
	if err != nil {
		return fmt.Errorf("person template: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := directory.NewSegmented(mcschema.New(), 0)
	d.SetNodeID(node)
	if _, err := d.AttachJournalSet(directory.JournalSetConfig{
		Base: filepath.Join(dir, "directory.journal"), Mode: directory.SyncNone,
	}); err != nil {
		return err
	}
	suffix, _ := dn.Parse("o=Lucent")
	sa := directory.NewAttrs()
	sa.Put("objectClass", mcschema.ClassOrganization)
	if err := d.Add(suffix, sa); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		num := fmt.Sprintf("%05d", i)
		a := directory.NewAttrs()
		for k, vs := range tmpl {
			out := make([]string, len(vs))
			for j, v := range vs {
				out[j] = strings.ReplaceAll(v, "00000", num)
			}
			a.Put(k, out...)
		}
		name, _ := dn.Parse(personDN(i))
		if err := d.Add(name, a); err != nil {
			return err
		}
	}
	return d.CloseJournal()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
