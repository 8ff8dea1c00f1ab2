"""Seeded input generator and sequential reference model for the spine.

Everything the program under test receives is produced here, before the
timed phase, from ``--seed``: the preload list, the op list with the
reply each op must get, and the MapReduce corpus.  The program only ever
sees the generated inputs.

The namespace model is the obvious sequential one (dirs hold file
names).  Picking a directory or a file is O(1), paths fan out over many
directories, and an op never touches a directory that an op within
``SETTLE`` positions of it writes: with ``WINDOW`` requests in flight
the NameNode evaluates a whole window in one fixpoint, where ``@next``
updates of one request are invisible to its neighbours, so only
*settled* paths have a single correct reply.
"""

from __future__ import annotations

import random
from typing import Any, NamedTuple, Optional

WINDOW = 8
# Ops closer than this never share a written directory.  Two windows:
# replies of window k and requests of window k+1 may interleave.
SETTLE = 2 * WINDOW

READ_KINDS = frozenset({"exists", "ls", "stat"})

# Payload marker: the reply carries a fresh file id the model does not
# predict (ids depend on evaluation order inside a fixpoint).
ANY_ID = "<id>"


class Op(NamedTuple):
    kind: str
    path: str
    arg: Any
    ok: bool
    payload: Any


class Namespace:
    """Sequential model of the BOOM-FS namespace: a flat set of
    directories under ``/``, each holding file names."""

    def __init__(self) -> None:
        self.dirs: list[str] = []
        self.files: dict[str, list[str]] = {}
        self._slot: dict[str, int] = {}  # file path -> index in its dir list
        self._fresh = 0

    def fresh_name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def add_dir(self, path: str) -> None:
        self.dirs.append(path)
        self.files[path] = []

    def add_file(self, directory: str, name: str) -> str:
        names = self.files[directory]
        path = f"{directory}/{name}"
        self._slot[path] = len(names)
        names.append(name)
        return path

    def remove_file(self, directory: str, name: str) -> None:
        names = self.files[directory]
        slot = self._slot.pop(f"{directory}/{name}")
        last = names.pop()
        if last != name:
            names[slot] = last
            self._slot[f"{directory}/{last}"] = slot

    def listing(self, directory: str) -> tuple[str, ...]:
        return tuple(sorted(self.files[directory]))

    def paths(self) -> set[str]:
        """Every path the NameNode's ``fqpath`` view must hold."""
        out = {"/"}
        for directory, names in self.files.items():
            out.add(directory)
            out.update(f"{directory}/{name}" for name in names)
        return out


class OpGenerator:
    """Emits a seeded op list against a :class:`Namespace`, keeping the
    model in step so every op carries its expected reply."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.ns = Namespace()
        self.ops: list[Op] = []
        # directory -> index of the last op that wrote / read it
        self._wrote: dict[str, int] = {}
        self._read: dict[str, int] = {}

    # -- preload (run by the set-up phase, replies still checked) -----------

    def preload(self, num_dirs: int, num_files: int) -> list[Op]:
        """mkdir ``num_dirs`` directories, then ``num_files`` files
        round-robin over them.  No settle rule is needed: each op only
        depends on a directory created at least ``num_dirs`` ops ago."""
        ns = self.ns
        ops = []
        for i in range(num_dirs):
            path = f"/d{i:04d}"
            ns.add_dir(path)
            ops.append(Op("mkdir", path, None, True, ANY_ID))
        for i in range(num_files):
            directory = ns.dirs[i % num_dirs]
            path = ns.add_file(directory, ns.fresh_name("f"))
            ops.append(Op("create", path, None, True, ANY_ID))
        return ops

    # -- settled-directory picking -------------------------------------------

    def _settled(self, directory: str, writing: bool) -> bool:
        now = len(self.ops)
        if now - self._wrote.get(directory, -SETTLE) < SETTLE:
            return False
        return not writing or now - self._read.get(directory, -SETTLE) >= SETTLE

    def _pick_dir(
        self,
        writing: bool,
        need_file: bool = False,
        pool: Optional[list[str]] = None,
        avoid: Optional[str] = None,
    ) -> str:
        pool = pool if pool is not None else self.ns.dirs
        files = self.ns.files
        while True:
            directory = pool[self.rng.randrange(len(pool))]
            if directory == avoid or (need_file and not files[directory]):
                continue
            if self._settled(directory, writing):
                return directory

    def _pick_file(self, directory: str) -> str:
        names = self.ns.files[directory]
        return names[self.rng.randrange(len(names))]

    def _emit(self, op: Op, wrote: tuple = (), read: tuple = ()) -> None:
        index = len(self.ops)
        for directory in wrote:
            self._wrote[directory] = index
        for directory in read:
            self._read[directory] = index
        self.ops.append(op)

    # -- one op of each kind ---------------------------------------------------

    def exists(self, pool=None) -> None:
        directory = self._pick_dir(False, need_file=True, pool=pool)
        # One probe in ten misses, so the negative rule (e2) is exercised.
        if self.rng.random() < 0.1:
            path = f"{directory}/{self.ns.fresh_name('x')}"
            self._emit(Op("exists", path, None, False, "noent"), read=(directory,))
        else:
            path = f"{directory}/{self._pick_file(directory)}"
            self._emit(Op("exists", path, None, True, False), read=(directory,))

    def ls(self, pool=None) -> None:
        directory = self._pick_dir(False, pool=pool)
        self._emit(
            Op("ls", directory, None, True, self.ns.listing(directory)),
            read=(directory,),
        )

    def stat(self, pool=None) -> None:
        directory = self._pick_dir(False, need_file=True, pool=pool)
        path = f"{directory}/{self._pick_file(directory)}"
        # Files here have no chunks: rule t2 answers (is_dir=False, size=0).
        self._emit(Op("stat", path, None, True, (False, 0)), read=(directory,))

    def create(self, pool=None) -> None:
        directory = self._pick_dir(True, pool=pool)
        path = self.ns.add_file(directory, self.ns.fresh_name("f"))
        self._emit(Op("create", path, None, True, ANY_ID), wrote=(directory,))

    def rm(self, pool=None) -> None:
        directory = self._pick_dir(True, need_file=True, pool=pool)
        name = self._pick_file(directory)
        self.ns.remove_file(directory, name)
        path = f"{directory}/{name}"
        self._emit(Op("rm", path, None, True, path), wrote=(directory,))

    def mv(self, pool=None) -> None:
        src = self._pick_dir(True, need_file=True, pool=pool)
        dst = self._pick_dir(True, pool=pool, avoid=src)
        name = self._pick_file(src)
        self.ns.remove_file(src, name)
        new = self.ns.add_file(dst, self.ns.fresh_name("m"))
        self._emit(Op("mv", f"{src}/{name}", new, True, new), wrote=(src, dst))

    def mkdir(self, pool=None) -> None:
        # New directories sit under "/", which no op reads, so mkdirs
        # need no settling among themselves.
        path = f"/n{self.ns.fresh_name('')}"
        self.ns.add_dir(path)
        self._emit(Op("mkdir", path, None, True, ANY_ID), wrote=(path,))

    # -- mixes -------------------------------------------------------------------

    def generate(
        self,
        count: int,
        mix: dict[str, int],
        read_pool: Optional[list[str]] = None,
        write_pool: Optional[list[str]] = None,
    ) -> list[Op]:
        """Append ``count`` ops in the proportions of ``mix`` (kind ->
        weight) and return them.  The proportions are exact and only the
        order is random, so two seeds differ in which paths they touch
        and when, not in how many expensive ops they contain.  Reads pick
        directories from ``read_pool`` and writes from ``write_pool``
        (default: every directory)."""
        start = len(self.ops)
        total = sum(mix.values())
        kinds = [k for k, weight in mix.items() for _ in range(count * weight // total)]
        # Rounding leftovers go to the kinds in mix order.
        kinds += list(mix)[: count - len(kinds)]
        self.rng.shuffle(kinds)
        for kind in kinds:
            pool = read_pool if kind in READ_KINDS else write_pool
            getattr(self, kind)(pool=pool)
        return self.ops[start:]


def reply_matches(op: Op, ok: bool, payload: Any, retried: bool) -> bool:
    """Does the NameNode's reply agree with the sequential model?

    A retried create/mkdir/rm may report that the lost first attempt
    already took effect (the client library treats that as success)."""
    if ok != op.ok:
        idempotent = {"mkdir": "exists", "create": "exists", "rm": "noent"}
        return retried and op.ok and idempotent.get(op.kind) == payload
    if op.payload is ANY_ID:
        return isinstance(payload, int)
    return payload == op.payload


# -- MapReduce corpus ------------------------------------------------------------

_VOCABULARY = (
    "the of and to data cloud query log rule table node chunk path join "
    "lattice fact tuple event clock quorum ballot paxos shuffle reduce map "
    "task tracker master datalog overlog bloom analytics declarative "
    "fixpoint stratum timestep"
).split()


def make_corpus(
    seed: int, num_files: int, words_per_file: int, words_per_line: int = 10
) -> list[bytes]:
    """Zipf-skewed text, one dataset per map task."""
    rng = random.Random(seed)
    weights = [1.0 / rank**1.2 for rank in range(1, len(_VOCABULARY) + 1)]
    datasets = []
    for _ in range(num_files):
        words = rng.choices(_VOCABULARY, weights, k=words_per_file)
        lines = [
            " ".join(words[i : i + words_per_line])
            for i in range(0, len(words), words_per_line)
        ]
        datasets.append("\n".join(lines).encode())
    return datasets

