"""Read the ziggurat tables of numpy's normal sampler from the installed
numpy extension and check them byte for byte against the copies in
`cesrsim.rng`.

    python3 tools/ziggurat_tables.py          # check; exit 0 only if all three equal
    python3 tools/ziggurat_tables.py print    # print the installed tables as Python lists

numpy's `random_standard_normal` reads three 256-entry tables, `ki_double`
(uint64), `wi_double` and `fi_double` (double).  They are local symbols of
`numpy/random/_generator.*.so`, found here through the extension's ELF
symbol table, parsed in Python; no numpy import and no binutils needed.
A check exits 1 when a table differs, is missing, or the extension has no
symbol table (a stripped build); the message says which.
"""

from __future__ import annotations

import importlib.util
import struct
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SHT_SYMTAB = 2
# symbol -> (struct format of the whole table, name of the copy in cesrsim.rng)
TABLES = {
    "ki_double": ("<256Q", "KI"),
    "wi_double": ("<256d", "WI"),
    "fi_double": ("<256d", "FI"),
}


class NoSymbolTable(Exception):
    """The extension was stripped of its symbol table."""


def extension_path() -> Path:
    """The installed numpy's `random/_generator` extension module."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        raise FileNotFoundError("numpy is not installed")
    found = sorted((Path(spec.origin).parent / "random").glob("_generator.*.so"))
    if not found:
        raise FileNotFoundError("numpy/random/_generator.*.so not found")
    return found[0]


def read_tables(path: Path) -> dict[str, bytes]:
    """The raw bytes of each table in TABLES, read from a 64-bit
    little-endian ELF file through its .symtab."""
    data = path.read_bytes()
    if data[:4] != b"\x7fELF" or data[4] != 2 or data[5] != 1:
        raise ValueError(f"{path}: not a 64-bit little-endian ELF file")
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    # (type, addr, offset, size, link) of each section header
    sections = [
        (f[1], f[3], f[4], f[5], f[6])
        for f in (struct.unpack_from("<IIQQQQIIQQ", data, shoff + i * shentsize)
                  for i in range(shnum))
    ]
    symtab = next((s for s in sections if s[0] == SHT_SYMTAB), None)
    if symtab is None:
        raise NoSymbolTable(f"{path} has no symbol table")
    strtab = sections[symtab[4]][2]
    wanted = {name.encode(): name for name in TABLES}
    tables = {}
    for off in range(symtab[2], symtab[2] + symtab[3], 24):
        st_name, _, _, st_shndx, st_value, st_size = struct.unpack_from("<IBBHQQ", data, off)
        start = strtab + st_name
        name = wanted.get(data[start:data.index(b"\0", start)])
        if name is None:
            continue
        _, addr, offset, _, _ = sections[st_shndx]
        at = offset + st_value - addr
        tables[name] = data[at:at + st_size]
    missing = sorted(set(TABLES) - set(tables))
    if missing:
        raise ValueError(f"{path}: no symbol {', '.join(missing)}")
    return tables


def committed_tables() -> dict[str, bytes]:
    sys.path.insert(0, str(SRC))
    from cesrsim import rng

    return {sym: struct.pack(fmt, *getattr(rng, attr)) for sym, (fmt, attr) in TABLES.items()}


def main(argv: list[str]) -> int:
    if argv not in ([], ["print"]):
        print("usage: ziggurat_tables.py [print]", file=sys.stderr)
        return 2
    try:
        path = extension_path()
        installed = read_tables(path)
    except (OSError, ValueError, NoSymbolTable) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if argv == ["print"]:
        for sym, (fmt, attr) in TABLES.items():
            print(f"{attr} = {list(struct.unpack(fmt, installed[sym]))!r}")
        return 0
    committed = committed_tables()
    bad = [sym for sym in TABLES if installed[sym] != committed[sym]]
    for sym in bad:
        print(f"{sym}: cesrsim.rng.{TABLES[sym][1]} differs from {path}")
    if not bad:
        print(f"ki_double, wi_double and fi_double equal cesrsim.rng's tables ({path.name})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
