package snapshot

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Ext is the checkpoint file extension, of roots and deltas alike.
const Ext = ".vpsnap"

// tmpPattern names in-progress checkpoint files; SweepTemp removes
// strays a crashed writer left behind.
const tmpPattern = ".vpsnap-tmp-*"

// SweepTemp removes orphaned in-progress checkpoint files from dir and
// reports how many it deleted. A writer killed between CreateTemp and
// rename leaves a near-full-size temp file nothing else cleans up, so a
// server sweeps its checkpoint directory on startup. A checkpoint
// directory belongs to one server at a time (Latest would conflate
// several anyway), so any temp file found at startup is dead.
func SweepTemp(dir string) (int, error) {
	strays, err := filepath.Glob(filepath.Join(dir, tmpPattern))
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	removed := 0
	for _, path := range strays {
		if err := os.Remove(path); err == nil {
			removed++
		} else if !os.IsNotExist(err) {
			return removed, fmt.Errorf("snapshot: %w", err)
		}
	}
	return removed, nil
}

// Filename returns the canonical checkpoint file name for a snapshot:
// event count then creation time, both zero-padded so lexicographic
// order is checkpoint order (ties on events broken by wall clock), then
// the content-addressed ID.
func Filename(events uint64, createdUnixNano int64, id string) string {
	return fmt.Sprintf("snap-%020d-%020d-%s%s", events, createdUnixNano, id, Ext)
}

// WriteFileAtomic encodes the snapshot (a root or a delta) into dir under
// its canonical name using the temp-file-plus-rename protocol: a reader
// (or a crashed writer) can never observe a partial snapshot. The file is
// fsynced before the rename and the directory after it, so a completed
// write also survives power loss.
func WriteFileAtomic(dir string, s *Snapshot) (path string, err error) {
	f, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	id, err := Encode(bw, s)
	if err != nil {
		return "", err
	}
	if err = bw.Flush(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	path = filepath.Join(dir, Filename(s.Meta.Events, s.Meta.CreatedUnixNano, id))
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	return path, nil
}

// syncDir flushes the directory entry so the rename itself survives a
// crash, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if closeErr := d.Close(); syncErr == nil {
		syncErr = closeErr
	}
	return syncErr
}

// ReadFile decodes and verifies one snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// checkpointNames returns the canonical checkpoint file names in dir, in
// checkpoint order: event count, then creation time, then ID.
func checkpointNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, _, _, ok := parseCkptName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Latest returns the newest checkpoint file in dir, root or delta, by
// the canonical name ordering (event count, then creation time, then ID).
// fs.ErrNotExist is returned when the directory holds no checkpoints.
func Latest(dir string) (string, error) {
	names, err := checkpointNames(dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("snapshot: no %s files in %s: %w", Ext, dir, fs.ErrNotExist)
	}
	return filepath.Join(dir, names[len(names)-1]), nil
}

// ResolveLatest restores from a checkpoint directory that may hold
// damage: it tries the checkpoints newest-first and returns the first
// whose chain resolves and loads (ResolveChain), reporting each one it
// passes over to skipped (which may be nil) with the reason. A corrupt
// delta thus falls back to its parent's state, a chain whose root is gone
// is skipped whole, and so is a root whose blobs pass the CRC but do not
// load. fs.ErrNotExist is returned when the directory holds no
// checkpoints; an error naming the newest failure when none resolves.
func ResolveLatest(dir string, skipped func(path string, err error)) (*Loaded, *ChainInfo, error) {
	names, err := checkpointNames(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("snapshot: no %s files in %s: %w", Ext, dir, fs.ErrNotExist)
	}
	var first error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		l, chain, err := ResolveChain(path)
		if err == nil {
			return l, chain, nil
		}
		if first == nil {
			first = err
		}
		if skipped != nil {
			skipped(path, err)
		}
	}
	return nil, nil, fmt.Errorf("snapshot: none of the %d checkpoints in %s resolves; newest: %w", len(names), dir, first)
}

// parseCkptName extracts the ordering key from a canonical checkpoint
// file name ("snap-<events>-<created>-<id>.vpsnap").
func parseCkptName(name string) (events uint64, createdUnixNano int64, id string, ok bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, Ext) {
		return 0, 0, "", false
	}
	parts := strings.SplitN(name[len("snap-"):len(name)-len(Ext)], "-", 3)
	if len(parts) != 3 || len(parts[0]) != 20 || len(parts[1]) != 20 || parts[2] == "" {
		return 0, 0, "", false
	}
	var created uint64
	if _, err := fmt.Sscanf(parts[0], "%d", &events); err != nil {
		return 0, 0, "", false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &created); err != nil {
		return 0, 0, "", false
	}
	return events, int64(created), parts[2], true
}

// FindByID locates the checkpoint file in dir whose content-addressed ID
// matches — how a delta's parent reference becomes a path. fs.ErrNotExist
// is returned when no file carries the ID.
func FindByID(dir, id string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, fid, ok := parseCkptName(e.Name()); ok && fid == id {
			return filepath.Join(dir, e.Name()), nil
		}
	}
	return "", fmt.Errorf("snapshot: no checkpoint with id %s in %s: %w", id, dir, fs.ErrNotExist)
}

// SweepSuperseded removes the checkpoint files whose event count is at or
// below events, keeping keepPath itself — the retention rule a server
// applies after every durable root checkpoint, which supersedes every
// older root and every delta chained on one. Returns how many files were
// removed.
func SweepSuperseded(dir, keepPath string, events uint64) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	keep := filepath.Base(keepPath)
	removed := 0
	for _, e := range entries {
		if e.IsDir() || e.Name() == keep {
			continue
		}
		ev, _, _, ok := parseCkptName(e.Name())
		if !ok || ev > events {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed++
		} else if !os.IsNotExist(err) {
			return removed, fmt.Errorf("snapshot: %w", err)
		}
	}
	return removed, nil
}
