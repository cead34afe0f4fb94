"""Simulated persistent memory with PSC and PTSO-style buffered persistency.

Two models:

* ``psc``  -- stores append directly to a per-cell FIFO persistence buffer.
* ``ptso`` -- stores append to a per-thread FIFO store buffer; ``propagate``
  moves the head of a store buffer to the target cell's persistence buffer.

A ``persist`` step moves the head of a persistence buffer into NVM.  A crash
discards all buffers and keeps NVM.  ``flush`` is a *blocking* step, enabled
only once the issuing thread's store buffer holds no write to the flushed
cells; what it needs of their persistence buffers depends on the regime.

The explorer schedules persists in one of three regimes, which every
operation but ``load`` takes as an argument (``explorer.Config.regime``).
``PMem`` also answers what the memory can do on its own (``system_steps``)
and what a crash can leave (``crash``), so the engine knows no regime's
rules:

* ``EXACT`` (no --por): persists are system steps of their own, and a
  crash leaves NVM as it is.  A store or propagation into a full
  persistence buffer blocks, and a flush waits until its cells'
  persistence buffers are empty.
* ``POR`` (--por, a crash left): persists happen on demand, and a crash
  leaves any choice of each cell's candidates (``crash_nvm_candidates``).
  A store or propagation into a full persistence buffer persists its head
  first, and a flush drains its cells' buffers: any schedule in which the
  step completes performed those persists.
* ``REDUCED`` (--por, no crash left that reads memory): persist timing is
  not observable, so a PSC store and a propagation write NVM directly and
  the persistence buffers stay empty; a PTSO store still goes through the
  store buffer, which other threads' loads can tell apart.  No crash
  follows it but one that ends the run and reads nothing (``engine``
  docstring).  A machine that enters it with buffered persists takes
  ``persist_all`` first, which no load can tell apart.

Memory state is a plain immutable triple ``(nvm, pbufs, sbufs)`` of tuples so
the explorer can hash, copy and branch on it cheaply.  Cells are integer
indices; values are small ints (transaction-metadata cells reuse the same
machinery with sentinel encodings).
"""

from __future__ import annotations

from itertools import product

PSC = "psc"
PTSO = "ptso"
MODELS = (PSC, PTSO)

EXACT = "exact"
POR = "por"
REDUCED = "reduced"


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

    def _to_pbuf(self, nvm, pbufs, cell, val, regime):
        """(nvm, pbufs) once `val` joins `cell`'s persistence buffer, or
        None when a full buffer blocks (``EXACT``)."""
        if regime == REDUCED:
            return _repl(nvm, cell, val), pbufs
        buf = pbufs[cell]
        if len(buf) >= self.cap:
            if regime == EXACT:
                return None
            nvm = _repl(nvm, cell, buf[0])
            buf = buf[1:]
        return nvm, _repl(pbufs, cell, buf + (val,))

    # -- program-visible operations ------------------------------------

    def store(self, st, tid, cell, val, regime):
        """The state after `tid` stores `val` into `cell`; None when it
        blocks on a full buffer."""
        nvm, pbufs, sbufs = st
        if self.model == PSC:
            r = self._to_pbuf(nvm, pbufs, cell, val, regime)
            return None if r is None else r + (sbufs,)
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

    def flush(self, st, tid, cells, regime):
        """The state once a flush of `cells` by `tid` completes; None while
        it blocks."""
        nvm, pbufs, sbufs = st
        if sbufs is not None:
            for c, _v in sbufs[tid]:
                if c in cells:
                    return None
        for c in cells:
            if pbufs[c]:
                if regime == EXACT:
                    return None
                nvm = _repl(nvm, c, pbufs[c][-1])
                pbufs = _repl(pbufs, c, ())
        return (nvm, pbufs, sbufs)

    # -- system steps ---------------------------------------------------

    def propagate(self, st, tid, regime):
        """Move the head of tid's store buffer into its cell's persistence
        buffer, as ``store`` would under PSC; None when the store buffer is
        empty or the move blocks."""
        nvm, pbufs, sbufs = st
        buf = sbufs[tid]
        if not buf:
            return None
        cell, val = buf[0]
        r = self._to_pbuf(nvm, pbufs, cell, val, regime)
        return None if r is None else r + (_repl(sbufs, tid, buf[1:]),)

    def persist(self, st, cell):
        nvm, pbufs, sbufs = st
        buf = pbufs[cell]
        return (_repl(nvm, cell, buf[0]), _repl(pbufs, cell, buf[1:]), sbufs)

    def persist_all(self, st):
        """`st` once every persistence buffer persisted: each cell takes
        its buffer's tail, the value ``load`` reads, and store buffers are
        kept.  Returns `st` itself when nothing is buffered."""
        nvm, pbufs, sbufs = st
        if not any(pbufs):
            return st
        nvm = tuple([buf[-1] if buf else v for v, buf in zip(nvm, pbufs)])
        return (nvm, ((),) * self.ncells, sbufs)

    def system_steps(self, st, regime):
        """The states one system step of `st` makes: under PTSO each
        thread's propagation, in thread order, then under ``EXACT`` only
        each buffered cell's persist, in cell order."""
        out = []
        if self.model == PTSO:
            for tid in range(self.nthreads):
                st2 = self.propagate(st, tid, regime)
                if st2 is not None:
                    out.append(st2)
        if regime == EXACT:
            pbufs = st[1]
            for c in range(self.ncells):
                if pbufs[c]:
                    out.append(self.persist(st, c))
        return out

    def crash(self, st, regime):
        """The distinct states a crash of `st` can leave, every buffer
        discarded: under ``EXACT``, where persists are steps, NVM as it
        is; else one per choice of each cell's candidate, in
        ``itertools.product`` order."""
        bufs = self.initial()[1:]
        if regime == EXACT:
            return [(st[0],) + bufs]
        return [(nvm,) + bufs
                for nvm in product(*self.crash_nvm_candidates(st))]

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
