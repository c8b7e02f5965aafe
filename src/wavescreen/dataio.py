"""Genotype/phenotype/covariate ingestion and screening-window definition."""

from __future__ import annotations

import errno
import functools
import hashlib
import math
import mmap
import os
import stat
import sys
import tempfile
from array import array
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

MIN_IMPUTATION_QUALITY = 0.7
# Names what a dosage cache entry holds and how: bump the number whenever the
# genotype parse changes what it keeps or the digest changes how it is taken
# (2: the leaf tree of ``_file_digest``; 3: the store named in the header; 4:
# every store codes, and the header counts the rounded dosages); the IQ cut
# and byte order are part of the name as they are, so an entry made under
# other ones is not read.
_DOSAGE_CACHE_FORMAT = (f"wavescreen-dosages-4-iq{float.hex(MIN_IMPUTATION_QUALITY)}"
                       f"-{sys.byteorder}")
# A dosage g read from text is held as the uint16 code c = rint(1e4 g), which
# decodes to c / 1e4: that is the parsed double itself for every value in
# [0, 2] written with at most 4 decimals, as IEEE division rounds correctly,
# and within 5e-5 of any other.
_CODE_SCALE = 1e4
# A dosage cache entry names the genotype file's bytes by the sha256 of the
# concatenated sha256 digests of its consecutive leaves of this many bytes,
# so that the leaves can be hashed on several threads.
_HASH_LEAF = 4 << 20

DEFAULT_WINDOW_BP = 1_000_000
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_GAP_BP = 10_000
DEFAULT_MIN_SNPS_PER_COEFF = 10.0
# "at least N SNPs per coefficient on average" is applied with this slack so
# that densities just under the nominal value (e.g. 9.7 vs 10) still qualify.
DEFAULT_DEPTH_SLACK = 0.95


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class ChromosomeBlock:
    """All retained SNPs of one chromosome, sorted by position.

    ``store`` holds the (n_snps, n_individuals) dosages: a cohort file's as
    uint16 codes c, each dosage's c / 1e4 (2 bytes a dosage), and a
    synthetic cohort's as float64 dosages (8 bytes a dosage). Other modules
    read it only through ``dosages``.
    """

    chromosome: str
    positions: np.ndarray  # int64, strictly increasing
    imputation_quality: np.ndarray
    store: np.ndarray

    @property
    def n_snps(self) -> int:
        return len(self.positions)

    @property
    def n(self) -> int:
        return self.store.shape[1]

    def dosages(self, rows=slice(None), minus: float = 0.0) -> np.ndarray:
        """The float64 dosages of the SNPs ``rows`` (any numpy index) less ``minus``.

        Codes decode to c / 1e4, bitwise the parsed double of a token exact
        at 4 decimals (a ``-0`` token gives +0.0), into a new array that
        ``minus`` is taken from in place.
        A float64 store gives a view of itself when ``minus`` is 0 and
        ``rows`` a slice, so it is never copied whole.
        """
        if self.store.dtype == np.uint16:
            values = np.divide(self.store[rows], _CODE_SCALE)
            if minus:
                values -= minus
            return values
        return self.store[rows] - minus if minus else self.store[rows]


@dataclass
class CohortData:
    """Validated cohort: dosage matrices per chromosome, phenotype and covariates."""

    blocks: dict[str, ChromosomeBlock]
    phenotype: np.ndarray  # (n,)
    covariates: np.ndarray  # (n, c); c may be 0

    @property
    def n(self) -> int:
        return len(self.phenotype)


@dataclass(frozen=True)
class Window:
    """A genomic region [start_bp, end_bp) selected for screening."""

    chromosome: str
    start_bp: int
    end_bp: int
    snp_start: int  # half-open index range into the chromosome's SNP list
    snp_end: int
    depth: int  # deepest analyzed wavelet scale

    @property
    def n_snps(self) -> int:
        return self.snp_end - self.snp_start

    @property
    def n_grid(self) -> int:
        """Points of the window's dyadic grid: the smallest power of two >= n_snps."""
        return 1 << grid_exponent(self.n_snps)


_GENOTYPE_HEADER = ("chrom", "chromosome", "chr", "#chrom")
_FLOAT_MAX = float(np.finfo(float).max)


def _parse_float(token: str, what: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric {what}: {token!r}") from None


def _loadtxt(lines: list[str]) -> np.ndarray:
    # comments=None: '#' is data here, so a field holding it is rejected
    # instead of the rest of its line being dropped as a comment.
    return np.loadtxt(lines, dtype=float, ndmin=2, comments=None)


def _rows_before_error(
    texts: list[str], line_nos: list[int], what: str
) -> tuple[np.ndarray, DataError | None]:
    """Parse row by row up to the first row that does not parse or is ragged.

    Returns the rows before it and a DataError naming its line. loadtxt's own
    messages count rows without the skipped blank and header lines, so the
    row is found here instead of being read from them.
    """
    rows: list[np.ndarray] = []
    error = None
    for text, line_no in zip(texts, line_nos):
        try:
            row = _loadtxt([text])[0]
        except ValueError:
            for token in text.split():
                try:
                    _loadtxt([token])
                except ValueError:
                    break
            error = DataError(f"line {line_no}: non-numeric {what}: {token!r}")
            break
        if rows and len(row) != len(rows[0]):
            error = DataError(f"line {line_no}: {len(row)} {what}s, expected {len(rows[0])}")
            break
        rows.append(row)
    return np.array(rows, ndmin=2), error


def _read_rows(
    texts: list[str],
    line_nos: list[int],
    what: str,
    lo: float = -_FLOAT_MAX,
    hi: float = _FLOAT_MAX,
) -> np.ndarray:
    """Parse one row of whitespace-separated numbers per text with numpy's C reader.

    Raises DataError naming the line of the first bad row in file order: a
    field that is not a number, a row whose width differs from the first
    row's, or a value outside [lo, hi]. NaN and infinities are always bad.
    """
    try:
        values, error = _loadtxt(texts), None
    except ValueError:
        values, error = _rows_before_error(texts, line_nos, what)
    bad = ~((values >= lo) & (values <= hi))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        value = values[row, col]
        if np.isfinite(value):
            raise DataError(f"line {line_nos[row]}: {what} {value} outside [{lo:g},{hi:g}]")
        raise DataError(f"line {line_nos[row]}: non-finite {what} {value}")
    if error is not None:
        raise error
    return values


def _read_matrix(path: str, what: str, header: bool = True) -> np.ndarray:
    """Read a whitespace-separated numeric matrix; with ``header``, an
    unparsable first line none of whose fields starts like a number (a digit,
    '+', '-' or '.') is a header row, and any other is a bad data row."""
    texts: list[str] = []
    line_nos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                texts.append(line)
                line_nos.append(line_no)
    if header and line_nos[:1] == [1] and not any(
            field[0] in "0123456789+-." for field in texts[0].split()):
        try:
            _loadtxt(texts[:1])
        except ValueError:
            del texts[0], line_nos[0]  # header row
    if not texts:
        raise DataError(f"{what} file {path} is empty")
    return _read_rows(texts, line_nos, what)


def _snp_fields(fields: list[str], line_no: int) -> tuple[int, float]:
    """Validate the metadata of one genotype row; returns (position, imputation quality)."""
    if len(fields) < 5:
        raise DataError(f"line {line_no}: expected >= 5 columns, got {len(fields)}")
    pos = _parse_float(fields[1], "position", line_no)
    if not (pos.is_integer() and abs(pos) < 2.0**63):
        raise DataError(f"line {line_no}: position {fields[1]!r} is not a 64-bit integer")
    iq = _parse_float(fields[3], "imputation quality", line_no)
    if not 0.0 <= iq <= 1.0:
        raise DataError(f"line {line_no}: imputation quality {iq} outside [0,1]")
    return int(pos), iq


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _open_regular(path: str) -> int:
    """Open ``path`` for reading and return its descriptor; raise OSError
    naming it unless it is a regular file. O_NONBLOCK keeps the open of a
    FIFO from waiting for a writer; it changes nothing for a regular file."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    mode = os.fstat(fd).st_mode
    if stat.S_ISREG(mode):
        return fd
    os.close(fd)
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    raise OSError(errno.EINVAL, "Not a regular file", path)


def _file_digest(path: str, workers: int) -> str:
    """The leaf-tree digest of the file at ``path``: the sha256 of the
    concatenated sha256 digests of its consecutive ``_HASH_LEAF``-byte
    leaves, hashed on up to ``workers`` threads; hashlib releases the GIL
    while it hashes.

    The file is opened as the parse opens it (``_open_regular``), so a path
    that is not a regular file raises here. Thread j of k reads leaves j,
    j + k, ... with ``os.preadv`` into one buffer of its own, an anonymous
    map, so the leaves' bytes never pass through the heap that the screen's
    threads allocate from.
    """
    fd = _open_regular(path)
    try:
        n_leaves = -(-os.fstat(fd).st_size // _HASH_LEAF)
        k = max(1, min(workers, _usable_cpus(), n_leaves))
        digests = [b""] * n_leaves

        def hash_leaves(first: int) -> None:
            with mmap.mmap(-1, _HASH_LEAF) as buf:
                for i in range(first, n_leaves, k):
                    got = os.preadv(fd, [buf], i * _HASH_LEAF)
                    digests[i] = hashlib.sha256(memoryview(buf)[:got]).digest()

        with ThreadPoolExecutor(k) as pool:
            list(pool.map(hash_leaves, range(k)))
    finally:
        os.close(fd)
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _file_version(path: str) -> tuple[int, ...]:
    """What changes when the file at ``path`` is written or replaced."""
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _lines(fh) -> Iterator[tuple[int, bytes, int]]:
    """Yield (line number, line, byte offset of its end) of a binary file,
    split where text mode splits it: after '\\n', '\\r\\n' and a lone '\\r'."""
    line_no = end = 0
    for raw in fh:
        for line in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
            line_no += 1
            end += len(line)
            yield line_no, line, end


def _row_texts(fd: int, spans: np.ndarray, lo: int, hi: int) -> list[str]:
    """The dosage texts of rows [lo, hi), read from the file in one pread."""
    base, stop = int(spans[lo, 0]), int(spans[hi - 1, 1])
    data = memoryview(os.pread(fd, stop - base, base))
    if len(data) != stop - base:
        raise DataError("genotype file shrank while it was read")
    return [str(data[a - base:b - base], "utf-8") for a, b in spans[lo:hi].tolist()]


# A process reads at most about this much of the file at once (always at
# least one row), so the dosage text it holds is bounded at any file size.
_MAX_TEXT_BYTES = 16 << 20


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint16 codes rint(1e4 g) of dosages ``values`` in [0, 2], and where
    code / 1e4 equals the value (it does for a ``-0``). The float64
    temporary is one, reused in place."""
    scaled = np.multiply(values, _CODE_SCALE)
    codes = np.rint(scaled, out=scaled).astype(np.uint16)
    return codes, np.divide(scaled, _CODE_SCALE, out=scaled) == values


def _parse_range(fd: int, spans: np.ndarray, first: list[str], line_nos: array, dest: np.ndarray,
                 out: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """Parse dosage rows [lo, hi) and write each kept row's ``_codes`` to
    ``out[dest[row]]``.

    The rows are read from the file in pieces of at most ``_MAX_TEXT_BYTES``
    and parsed in order behind the file's first row, ``first``, so that
    their widths are checked against that row's and the range's first error
    is the one a single pass over the file meets first in it. Rows with
    ``dest`` -1 are checked and dropped. Returns how many kept dosages were
    not exact as codes, and so rounded, and the line of the first (0 if none).
    """
    rounded = line = 0
    while lo < hi:
        stop = lo + max(1, int(np.searchsorted(spans[lo:hi, 1], spans[lo, 0] + _MAX_TEXT_BYTES,
                                               "right")))
        values = _read_rows(first + _row_texts(fd, spans, lo, stop),
                            line_nos[:1] + line_nos[lo:stop], "dosage", 0.0, 2.0)[1:]
        rows = dest[lo:stop]
        keep = rows >= 0
        codes, exact = _codes(values)
        out[rows[keep]] = codes[keep]
        inexact = keep & ~exact.all(axis=1)  # the kept rows with a rounded dosage
        if inexact.any():
            line = line or line_nos[lo + int(np.argmax(inexact))]
            rounded += int(np.count_nonzero(~exact[inexact]))
        lo = stop
    return rounded, line


# Each process parses about this many chunks, taken from a shared queue, so
# a process slowed by other load leaves its remaining chunks to the others
# instead of holding up the whole parse.
_CHUNKS_PER_WORKER = 8
_MAX_CHUNKS = 1024  # the queue, 4 bytes a chunk, fits one atomic pipe write


def _parse_chunks(parse_range, bounds: np.ndarray, queue_fd: int, bad: np.ndarray,
                  rounded: np.ndarray) -> None:
    """Take chunks ``[bounds[c], bounds[c + 1])`` from the queue pipe until it
    is empty, setting ``rounded[c]`` to what ``parse_range`` returns for
    chunk c, or ``bad[c]`` where it raises a DataError."""
    while chunk := os.read(queue_fd, 4):
        c = int.from_bytes(chunk, "little")
        try:
            rounded[c] = parse_range(int(bounds[c]), int(bounds[c + 1]))
        except DataError:
            bad[c] = True


def _mapped_rows(n_rows: int, width: int, dtype: np.dtype, shared: bool = False) -> np.ndarray:
    """An (n_rows, width) array of zeros on an anonymous map of its own,
    unmapped once the array's last view goes.

    The parse's dosage store is a ``shared`` map, which forked children
    write into. Each of a window's arrays (its block sums, each level's
    sums, each scale's c and d) takes a private map, its pages faulted in
    as it is made, which fills in about half the time a shared map takes;
    so none of them passes through malloc, whose arenas keep freed
    multi-MiB arrays. A map cannot be empty, so it gets a byte to spare."""
    flags = mmap.MAP_SHARED if shared else mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, n_rows * width * dtype.itemsize + 1, flags=flags),
                         dtype=dtype, count=n_rows * width).reshape(n_rows, width)


def _fork_parse(parse_range, bounds: np.ndarray, k: int, bad: np.ndarray,
                rounded: np.ndarray) -> None:
    """Run ``_parse_chunks`` on every chunk, queued in a pipe, in the parent
    and ``k - 1`` forked children; reap every child and raise RuntimeError
    if one failed."""
    queue_fd, fill_fd = os.pipe()
    os.write(fill_fd, b"".join(c.to_bytes(4, "little") for c in range(len(bounds) - 1)))
    os.close(fill_fd)
    children: list[int] = []
    try:
        for _ in range(k - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    _parse_chunks(parse_range, bounds, queue_fd, bad, rounded)
                    os._exit(0)
                finally:
                    os._exit(1)  # a child never returns, and any exception fails it
            children.append(pid)
        _parse_chunks(parse_range, bounds, queue_fd, bad, rounded)
    finally:
        os.close(queue_fd)
        exits = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for code in exits:
        if code != 0:
            raise RuntimeError(f"a dosage parser process failed (exit code {code})")


def _read_dosages(fd: int, spans: np.ndarray, line_nos: array, dest: np.ndarray, n_kept: int,
                  workers: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Parse the dosage rows in up to ``workers`` processes at once.

    Row i's dosage text is bytes ``spans[i]`` of the open file ``fd``. Every
    row is checked, and row i lands in row ``dest[i]`` of the returned
    (n_kept, width) store of codes (see ``ChromosomeBlock``), or is dropped
    where ``dest[i]`` is -1. Also returns how many kept dosages were not
    exact at 4 decimals, and so rounded, and the line of the first (0 if
    none). The rows are cut into contiguous chunks, queued in a pipe. The
    parent and ``k - 1`` forked children take chunks from it until it is
    empty; each reads its chunks' text from the file itself and writes
    their kept rows into place in a shared anonymous map of codes, so the
    dosages are held once, every row is parsed once and no process holds
    more than a piece of the text. Each chunk records its rounded count and
    first line in a second shared map, and sets its flag in a third if it
    has a bad row. The parent reaps every child, raises RuntimeError if one
    failed, and parses the lowest chunk flagged bad again, which raises the
    first error in file order, as one pass would. With one process, or no
    ``os.fork``, the parent parses every chunk. The width probe loads
    numpy's reader before any fork, so a child imports nothing; a first
    row that fails it raises its own error.
    """
    first = _row_texts(fd, spans, 0, 1)
    try:
        width = _loadtxt(first).shape[1]
    except ValueError:  # the first row is bad, so its error is the file's first
        raise _rows_before_error(first, line_nos[:1], "dosage")[1] from None
    n_rows = len(line_nos)
    k = min(workers, _usable_cpus(), n_rows) if hasattr(os, "fork") else 1
    n_chunks = min(n_rows, k * _CHUNKS_PER_WORKER, _MAX_CHUNKS)
    bounds = np.arange(n_chunks + 1) * n_rows // n_chunks
    bad = np.frombuffer(mmap.mmap(-1, n_chunks), dtype=bool)
    rounded = np.frombuffer(mmap.mmap(-1, 16 * n_chunks), dtype=np.int64).reshape(n_chunks, 2)
    codes = _mapped_rows(n_kept, width, np.dtype(np.uint16), shared=True)
    parse_range = functools.partial(_parse_range, fd, spans, first, line_nos, dest, codes)
    _fork_parse(parse_range, bounds, k, bad, rounded)
    if bad.any():
        c = int(np.argmax(bad))
        # raises the chunk's error unless the file changed
        parse_range(int(bounds[c]), int(bounds[c + 1]))
        raise DataError("genotype file changed while it was read")
    # the chunks lie in file order, so the first with a rounded dosage holds the first
    return codes, (int(rounded[:, 0].sum()), int(rounded[np.argmax(rounded[:, 0] > 0), 1]))


_Layout = tuple[list[tuple[str, int]], np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]


def _read_genotypes(path: str, workers: int = 1) -> _Layout:
    """Read and validate the genotype file (format in ``load_cohort``).

    Returns the SNPs passing ``MIN_IMPUTATION_QUALITY`` in a dosage cache
    entry's layout, ``(table, positions, qualities, store, (rounded, line))``:
    ``table`` is ``[(chromosome, kept count)]`` in sorted chromosome order,
    and the int64 positions, float64 qualities and shared (n_kept, n) store
    of codes hold the rows in that order, each chromosome's stably sorted by
    position; ``rounded`` counts the kept dosages not exact at 4 decimals,
    and ``line`` is the first one's (0 if none). ``_blocks`` checks for
    duplicates. One pass over the file keeps each row's metadata and the
    byte span of its dosage field; ``_read_dosages`` reads them back.
    """
    positions = array("q")
    iqs = array("d")
    spans = array("q")  # start and end byte offset of each row's dosage field
    line_nos = array("q")
    kept: dict[str, list[int]] = {}  # chromosome -> indices of rows passing the IQ filter
    row_error = None
    fd = _open_regular(path)
    try:
        # a buffer above the longest lines lets the reader split them without
        # refilling it for each line
        with open(fd, "rb", buffering=1 << 20, closefd=False) as fh:
            for line_no, line, end in _lines(fh):
                text = line.decode("utf-8")
                fields = text.split(None, 4)
                if not fields or (line_no == 1 and fields[0].lower() in _GENOTYPE_HEADER):
                    continue
                try:
                    pos, iq = _snp_fields(fields, line_no)
                except DataError as exc:
                    row_error = exc  # the dosages of the rows above are checked first
                    break
                if not iq < MIN_IMPUTATION_QUALITY:
                    kept.setdefault(fields[0], []).append(len(line_nos))
                positions.append(pos)
                iqs.append(iq)
                # the dosage field runs to the line's end; its length in bytes
                # equals its length in characters unless the line is not ASCII
                rest = fields[4] if len(text) == len(line) else fields[4].encode("utf-8")
                spans.extend((end - len(rest), end))
                line_nos.append(line_no)
        # the kept rows in map order: chromosomes in sorted order, each one's
        # rows stably sorted by position; row i lands in map row dest[i]
        all_positions = np.frombuffer(positions, dtype=np.int64)
        table = [(chrom, len(kept[chrom])) for chrom in sorted(kept)]
        rows = np.concatenate([np.empty(0, np.intp)] + [
            r[np.argsort(all_positions[r], kind="stable")]
            for r in (np.array(kept[chrom]) for chrom, _ in table)])
        dest = np.full(len(line_nos), -1, dtype=np.intp)
        dest[rows] = np.arange(len(rows))
        if line_nos:
            dosages, rounded = _read_dosages(
                fd, np.frombuffer(spans, dtype=np.int64).reshape(-1, 2), line_nos, dest,
                len(rows), workers)
    finally:
        os.close(fd)
    if row_error is not None:
        raise row_error
    if not line_nos:
        raise DataError(f"genotype file {path} has no SNP rows")
    if not table:
        raise DataError("no SNPs passed the imputation-quality filter")
    return table, all_positions[rows], np.frombuffer(iqs, dtype=float)[rows], dosages, rounded


def _blocks(table: list[tuple[str, int]], positions: np.ndarray, qualities: np.ndarray,
            store: np.ndarray) -> dict[str, ChromosomeBlock]:
    """Cut a layout (see ``_read_genotypes``) into one block of views per
    chromosome; raise DataError at the first duplicate position in one."""
    blocks = {}
    start = 0
    for chrom, count in table:
        rows = slice(start, start + count)
        blocks[chrom] = block = ChromosomeBlock(chrom, positions[rows], qualities[rows],
                                                store[rows])
        dup = np.flatnonzero(np.diff(block.positions) == 0)
        if dup.size:
            raise DataError(f"duplicate position {block.positions[dup[0]]} on chromosome {chrom}")
        start += count
    return blocks


_MAX_HEADER_LINE = 1 << 16  # a longer header line is not one _save_entry wrote


def _entry_path(cache_dir: str, genotype_path: str) -> str:
    """The dosage cache entry of a genotype file, named by a hash of its real
    path, so a file that changes replaces its own entry."""
    key = hashlib.sha256(os.fsencode(os.path.realpath(genotype_path))).hexdigest()[:32]
    return os.path.join(cache_dir, f"dosages_{key}.bin")


def _load_entry(entry: str, digest: str) -> _Layout | None:
    """The layout (see ``_read_genotypes``) held by a dosage cache entry.

    None when the entry is missing, its header is not one ``_save_entry``
    writes (its chromosome names distinct and sorted, its rounded count and
    line both 0 or both positive), its size is not what the header implies,
    or the digest in its header is not ``digest``. The arrays are read-only
    views of a map of the entry.
    """
    try:
        with open(entry, "rb") as fh:
            form, held, rounded, line, n, n_chroms = (fh.readline(_MAX_HEADER_LINE)
                                                      .decode("utf-8").split("\t"))
            if form != _DOSAGE_CACHE_FORMAT or held != digest:
                return None
            rounded, line = int(rounded), int(line)
            table = []
            for _ in range(int(n_chroms)):
                chrom, count = fh.readline(_MAX_HEADER_LINE).decode("utf-8").split("\t")
                table.append((chrom, int(count)))
            n, n_kept, offset = int(n), sum(c for _, c in table), -(-fh.tell() // 8) * 8
            names = [chrom for chrom, _ in table]
            if (n < 1 or min((c for _, c in table), default=0) < 1
                    or names != sorted(set(names))  # as the parse orders them
                    or min(rounded, line) < 0 or (rounded == 0) != (line == 0)
                    or os.fstat(fh.fileno()).st_size != offset + 16 * n_kept + 2 * n_kept * n):
                return None
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # no readable entry, or a header that does not parse
        return None
    return (table, np.frombuffer(data, np.int64, n_kept, offset),
            np.frombuffer(data, float, n_kept, offset + 8 * n_kept),
            np.frombuffer(data, np.uint16, n_kept * n, offset + 16 * n_kept).reshape(n_kept, n),
            (rounded, line))


def replace_file(path: str, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to a temporary file beside ``path`` (its
    directory made if missing), sync it, make it 0644 and rename it to ``path``,
    so no reader sees part of a file, even after a crash; on failure, remove it and re-raise."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())  # the data is on disk before the name is
        os.chmod(tmp, 0o644)  # mkstemp's file is private; a shared cache is not
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _save_entry(entry: str, layout: _Layout, digest: str) -> None:
    """Write a layout (see ``_read_genotypes``) to the dosage cache entry ``entry``.

    One header line holds the format, the genotype file's digest, the
    rounded dosage count and the first one's line, n and the number of
    chromosomes, and one line per chromosome its name and kept SNP count;
    the header is padded to a multiple of 8 bytes. The positions (int64),
    imputation qualities (float64) and codes (uint16) follow as the layout
    holds them. ``replace_file`` syncs the entry before it renames it into
    place; one that cannot be written costs a warning, not the run.
    """
    table, positions, qualities, store, (rounded, line) = layout
    header = (f"{_DOSAGE_CACHE_FORMAT}\t{digest}\t{rounded}\t{line}\t{store.shape[1]}"
              f"\t{len(table)}\n"
              + "".join(f"{chrom}\t{count}\n" for chrom, count in table)).encode("utf-8")
    try:
        replace_file(entry, [header + b" " * (-len(header) % 8), positions, qualities, store])
    except OSError as exc:
        print(f"warning: parsed dosages not cached: {exc}", file=sys.stderr)


def load_cohort(
    genotype_path: str,
    phenotype_path: str,
    covariate_path: str | None = None,
    workers: int = 1,
    cache_dir: str | None = None,
) -> CohortData:
    """Load and validate a cohort from whitespace-separated text files.

    Genotype format: one SNP per row, ``chrom pos id iq`` followed by one
    dosage per individual (the id column is required but not kept); a
    first line starting with ``chrom`` (or ``chr``, ``chromosome``,
    ``#chrom``) is a header. Any run of whitespace separates
    fields, blank lines are skipped and ``#`` is not a comment. Positions must
    be integers (``100.0`` and ``1e5`` are), imputation qualities lie in
    [0, 1] and dosages in [0, 2]; NaN and infinities are rejected, here and
    in the phenotype and covariates. One pass over the genotype file keeps
    each row's metadata and the byte span of its dosage field; numpy's C
    reader then parses the dosages in up to ``workers`` processes, all but
    one forked, that share out contiguous row chunks and each read their
    own chunks' spans from the file. The genotype path must be a regular
    file. An error in a row names its line; of several, the first in the
    file is raised, at any ``workers``: a child only flags a chunk with a
    bad row in a shared map, and the parent parses the lowest flagged
    chunk again to raise its error. The phenotype and covariate files
    are parsed before the genotype file, so an error in them is raised
    first; their row counts are checked against it after.

    The genotype file must not change while it is read: a dosage span that
    reads short raises "genotype file shrank while it was read", and a
    file whose device, inode, size, modification or change time differs
    after the load from before it raises "genotype file changed while it
    was read". A write within one timestamp tick of the first look, that
    keeps the size, can still go unseen.

    SNPs with imputation quality below ``MIN_IMPUTATION_QUALITY`` are
    dropped after validation. Each chromosome's rows are sorted by position
    (stably); duplicate positions within a chromosome are rejected. The kept
    dosages are read to 4 decimals: each is stored as the 2-byte code of
    its value rounded to 4 decimals (``ChromosomeBlock``), a quarter of
    float64's memory, which decodes to the parsed double itself for a value
    written with at most 4 decimals and to within 5e-5 of any other. A load
    that rounds any prints one warning with their count and the first
    one's line. The phenotype and covariate files take one row per
    individual and an optional header row; the phenotype file holds one
    column.

    With a ``cache_dir``, the load first takes the digest of the genotype
    file's bytes, once: the sha256 of the sha256 digests of its 4 MiB
    leaves, hashed on up to ``workers`` threads (``_file_digest``). If the
    entry there named by the file's real path holds that digest, the entry
    is mapped read-only instead of parsing the file again; an entry that
    is missing, malformed, truncated, of an older format or of other bytes
    is parsed past, and a load that passes every check rewrites it with
    the digest. The entry holds the codes as the parse made them, and its
    header the rounded count and line, so a hit warns as the parse did.
    Without a ``cache_dir`` the file is not hashed. A parse and a hit give
    one layout, which ``_blocks`` cuts into blocks and checks.
    """
    phenotype = _read_matrix(phenotype_path, "phenotype")
    if phenotype.shape[1] != 1:
        raise DataError(f"phenotype file {phenotype_path} has {phenotype.shape[1]} columns, "
                        "expected 1")
    phenotype = phenotype.ravel()
    covariates = None if covariate_path is None else _read_matrix(covariate_path, "covariate")
    version = _file_version(genotype_path)
    entry = layout = None
    if cache_dir is not None:
        entry, digest = _entry_path(cache_dir, genotype_path), _file_digest(genotype_path, workers)
        layout = _load_entry(entry, digest)
    parsed = layout is None
    if parsed:
        layout = _read_genotypes(genotype_path, workers)
    blocks = _blocks(*layout[:4])
    if _file_version(genotype_path) != version:
        raise DataError("genotype file changed while it was read")
    n_ind = layout[3].shape[1]
    if len(phenotype) != n_ind:
        raise DataError(
            f"phenotype has {len(phenotype)} rows but genotypes have {n_ind} individuals"
        )
    if covariates is None:
        covariates = np.empty((n_ind, 0))
    elif covariates.shape[0] != n_ind:
        raise DataError(f"covariates have {covariates.shape[0]} rows but cohort has {n_ind}")
    rounded, line = layout[4]
    if rounded:
        print(f"warning: rounded {rounded} of the kept dosages to 4 decimals, the first on "
              f"line {line}", file=sys.stderr)
    if entry is not None and parsed:
        _save_entry(entry, layout, digest)
    return CohortData(blocks=blocks, phenotype=phenotype, covariates=covariates)


def grid_exponent(n_snps: int) -> int:
    """Smallest J with 2^J >= n_snps."""
    if n_snps < 1:
        raise ValueError("need at least one SNP")
    return (n_snps - 1).bit_length()


def window_depth(n_snps: int, min_snps_per_coeff: float = DEFAULT_MIN_SNPS_PER_COEFF) -> int:
    """Deepest scale such that n_snps / 2^depth >= min_snps_per_coeff * DEFAULT_DEPTH_SLACK.

    Capped so that detail coefficients remain defined (block size >= 2 grid
    points, i.e. depth <= J - 1).
    """
    effective = min_snps_per_coeff * DEFAULT_DEPTH_SLACK
    if n_snps < effective:
        return -1
    depth = int(math.floor(math.log2(n_snps / effective)))
    return min(depth, grid_exponent(n_snps) - 1) if n_snps > 1 else 0


def define_windows(
    cohort: CohortData,
    window_bp: int = DEFAULT_WINDOW_BP,
    overlap_fraction: float = DEFAULT_OVERLAP,
    max_gap_bp: int = DEFAULT_MAX_GAP_BP,
    min_snps_per_coeff: float = DEFAULT_MIN_SNPS_PER_COEFF,
    depth_cap: int | None = None,
) -> list[Window]:
    """Tile each chromosome into candidate windows and keep the dense ones.

    Windows [start_bp, start_bp + window_bp) start at the chromosome's first
    SNP, advance by ``window_bp * (1 - overlap_fraction)`` and end at or
    before its last SNP, so a SNP on a window's end belongs to the next
    window only. A candidate is kept only if no two consecutive SNPs inside
    it are more than ``max_gap_bp`` apart and it holds enough SNPs for at
    least the scale-0 coefficient. Its depth is ``window_depth`` of its SNP
    count, capped at ``depth_cap``.
    """
    if window_bp <= 0:
        raise ValueError("window_bp must be positive")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if max_gap_bp <= 0:
        raise ValueError("max_gap_bp must be positive")
    if min_snps_per_coeff <= 0:
        raise ValueError("min_snps_per_coeff must be positive")
    if depth_cap is not None and depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")

    stride = int(round(window_bp * (1.0 - overlap_fraction)))
    stride = max(stride, 1)
    windows: list[Window] = []
    for block in cohort.blocks.values():
        pos = block.positions
        start, last = int(pos[0]), int(pos[-1])
        while start + window_bp <= last:
            end = start + window_bp
            lo = int(np.searchsorted(pos, start, side="left"))
            hi = int(np.searchsorted(pos, end, side="left"))
            if hi - lo >= max(min_snps_per_coeff, 2) and np.diff(pos[lo:hi]).max() <= max_gap_bp:
                depth = window_depth(hi - lo, min_snps_per_coeff)
                if depth_cap is not None:
                    depth = min(depth, depth_cap)
                windows.append(Window(block.chromosome, start, end, lo, hi, depth))
            start += stride
    return windows
