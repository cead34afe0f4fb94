"""Simulated persistent memory with PSC and PTSO-style buffered persistency.

Two models:

* ``psc``  -- stores append directly to a per-cell FIFO persistence buffer.
* ``ptso`` -- stores append to a per-thread FIFO store buffer; ``propagate``
  moves the head of a store buffer to the target cell's persistence buffer.

A ``persist`` step moves the head of a persistence buffer into NVM.  A crash
discards all buffers and keeps NVM.  ``flush`` has no effect of its own: it is
a *blocking* step, enabled only once the issuing thread's store buffer holds no
write to the flushed cells and their persistence buffers are empty.

Memory state is a plain immutable triple ``(nvm, pbufs, sbufs)`` of tuples so
the explorer can hash, copy and branch on it cheaply.  Cells are integer
indices; values are small ints (transaction-metadata cells reuse the same
machinery with sentinel encodings).
"""

from __future__ import annotations

PSC = "psc"
PTSO = "ptso"
MODELS = (PSC, PTSO)


def _repl(tup, i, v):
    return tup[:i] + (v,) + tup[i + 1:]


class PMem:
    """Configuration + operations over (nvm, pbufs, sbufs) state triples."""

    __slots__ = ("ncells", "nthreads", "cap", "model", "init_nvm")

    def __init__(self, ncells, nthreads, cap, model, init_nvm=None):
        if model not in MODELS:
            raise ValueError("unknown memory model: %r" % (model,))
        if cap < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.ncells = ncells
        self.nthreads = nthreads
        self.cap = cap
        self.model = model
        if init_nvm is None:
            init_nvm = (0,) * ncells
        self.init_nvm = tuple(init_nvm)

    def initial(self):
        pbufs = ((),) * self.ncells
        sbufs = ((),) * self.nthreads if self.model == PTSO else None
        return (self.init_nvm, pbufs, sbufs)

    # -- program-visible operations ------------------------------------

    def store(self, st, tid, cell, val):
        """Buffered store; returns the new state or None when at capacity."""
        nvm, pbufs, sbufs = st
        if self.model == PSC:
            buf = pbufs[cell]
            if len(buf) >= self.cap:
                return None
            return (nvm, _repl(pbufs, cell, buf + (val,)), sbufs)
        buf = sbufs[tid]
        if len(buf) >= self.cap:
            return None
        return (nvm, pbufs, _repl(sbufs, tid, buf + ((cell, val),)))

    def load(self, st, tid, cell):
        """Store buffer (own thread, newest first), else persist buffer tail,
        else NVM."""
        nvm, pbufs, sbufs = st
        if sbufs is not None:
            for c, v in reversed(sbufs[tid]):
                if c == cell:
                    return v
        buf = pbufs[cell]
        if buf:
            return buf[-1]
        return nvm[cell]

    def flush_ready(self, st, tid, cells):
        """True when a flush of `cells` by `tid` may complete."""
        if not self.sbuf_clear_of(st, tid, cells):
            return False
        pbufs = st[1]
        for c in cells:
            if pbufs[c]:
                return False
        return True

    def sbuf_clear_of(self, st, tid, cells):
        sbufs = st[2]
        if sbufs is None:
            return True
        for c, _v in sbufs[tid]:
            if c in cells:
                return False
        return True

    # -- system steps ---------------------------------------------------

    def propagate(self, st, tid):
        """Move the head of tid's store buffer into its cell's persistence
        buffer; None when the store buffer is empty or the target is full."""
        nvm, pbufs, sbufs = st
        buf = sbufs[tid]
        if not buf:
            return None
        cell, val = buf[0]
        target = pbufs[cell]
        if len(target) >= self.cap:
            return None
        return (nvm, _repl(pbufs, cell, target + (val,)),
                _repl(sbufs, tid, buf[1:]))

    def propagate_forced(self, st, tid):
        """Propagate the head, persisting the target's head first if full.
        Only valid in reduced mode (persist timing invisible)."""
        nvm, pbufs, sbufs = st
        buf = sbufs[tid]
        cell, val = buf[0]
        target = pbufs[cell]
        if len(target) >= self.cap:
            nvm = _repl(nvm, cell, target[0])
            target = target[1:]
        return (nvm, _repl(pbufs, cell, target + (val,)),
                _repl(sbufs, tid, buf[1:]))

    def persistable(self, st):
        pbufs = st[1]
        return [c for c in range(self.ncells) if pbufs[c]]

    def persist(self, st, cell):
        nvm, pbufs, sbufs = st
        buf = pbufs[cell]
        return (_repl(nvm, cell, buf[0]), _repl(pbufs, cell, buf[1:]), sbufs)

    def drain_cells(self, st, cells):
        """Persist everything buffered for `cells` (reduced-mode flush)."""
        nvm, pbufs, sbufs = st
        nvm = list(nvm)
        pbufs = list(pbufs)
        for c in cells:
            if pbufs[c]:
                nvm[c] = pbufs[c][-1]
                pbufs[c] = ()
        return (tuple(nvm), tuple(pbufs), sbufs)

    def crash(self, st):
        """Discard all buffers; NVM survives."""
        nvm = st[0]
        pbufs = ((),) * self.ncells
        sbufs = ((),) * self.nthreads if self.model == PTSO else None
        return (nvm, pbufs, sbufs)

    # -- reduced-mode fast paths (persist timing no longer observable) ---

    def store_direct(self, st, cell, val):
        nvm, pbufs, sbufs = st
        return (_repl(nvm, cell, val), pbufs, sbufs)

    def propagate_direct(self, st, tid):
        nvm, pbufs, sbufs = st
        buf = sbufs[tid]
        cell, val = buf[0]
        return (_repl(nvm, cell, val), pbufs, _repl(sbufs, tid, buf[1:]))

    def crash_nvm_candidates(self, st):
        """Per-cell candidate post-crash values.

        Any buffered value can be made the last one persisted before a
        crash, independently per cell: persisting a value only requires
        draining its own cell's earlier entries (same cell, so it just
        moves the final value along) and propagating its thread's earlier
        store-buffer entries (propagation without persisting has no NVM
        effect).  The reachable post-crash NVM set is therefore the product
        of these per-cell candidate lists.
        """
        nvm, pbufs, sbufs = st
        cands = []
        for c in range(self.ncells):
            vals = [nvm[c]]
            for v in pbufs[c]:
                if v not in vals:
                    vals.append(v)
            cands.append(vals)
        if sbufs is not None:
            for buf in sbufs:
                for c, v in buf:
                    if v not in cands[c]:
                        cands[c].append(v)
        return cands
