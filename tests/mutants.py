"""The implementation-bug catalogue as injectable mutants.

Each BUG_MUTANTS entry edits the source text of the one Python function it
breaks, runs the edited copy in a copy of that module's globals, and
monkeypatches the result in, so tests can prove the KAT suite catches that
whole bug class on the reference path.  Each edit asserts that its text
still matches the function, so a mutant cannot silently stop applying.
The `detected_by` count is the earliest KAT record whose CT field must
diverge: 1 for bugs visible with empty inputs, 2 (the first record with
non-empty associated data) for the AD-phase bug, and 9 (the first with a
whole AD block) for padding a whole block.  The tests run the first
KAT_HEAD records of each file, which reach a whole AD block at either rate.

KEY_BIT_BRANCH is no bug the KAT files can see: a branch on a key bit
that leaves every output as it was, which tests/test_control_flow.py must
catch.

KERNEL_MUTANTS carries the same nine bug classes into the compiled kernel
as edits of its C source, which a test builds and loads; each must be
caught by the same earliest record as its Python twin.  UNCOMPLEMENTED_K2
is a kernel bug with no twin, caught the same way.  KERNEL_KEY_BIT_BRANCH
and EARLY_EXIT_COMPARE are the kernel's negative controls for the C half
of tests/test_control_flow.py.  SHARED_STATE, one state for every call, is
the negative control for the thread test in tests/test_aead.py.

FORGERY_MUTANTS break the tag check instead, one per backend, and the
tamper test must catch each on its own backend.  `ascon-aead selftest`
must exit 5 under every mutant in BUG_MUTANTS, KERNEL_MUTANTS,
UNCOMPLEMENTED_K2 and FORGERY_MUTANTS.
"""

import inspect
from pathlib import Path

from ascon_aead import aead, permutation


def _edit(module, name, *edits, also=()):
    """apply(monkeypatch) replacing module.name by its source with `edits`.

    Each edit is (text, replacement); every match of the text is replaced,
    and the text must occur in the function's current source.  The edited
    function is set on each module in `also` too, one that imports the name.
    """

    def apply(monkeypatch):
        source = inspect.getsource(getattr(module, name))
        for original, replacement in edits:
            assert original in source, f"mutant no longer matches {module.__name__}.{name}"
            source = source.replace(original, replacement)
        namespace = dict(vars(module))
        exec(compile(source, f"<mutant of {module.__name__}.{name}>", "exec"), namespace)
        for target in (module, *also):
            monkeypatch.setattr(target, name, namespace[name])

    return apply


def use_kernel_mutant(monkeypatch, tmp_path, edit) -> None:
    """Make the loader build and load _accel.c with `edit`, (text, replacement), applied.

    The build goes to a cache in `tmp_path`.  Call it with aead's backend
    unresolved (conftest's fresh_loader), so its next call builds the mutant.
    """
    from ascon_aead import _accel

    monkeypatch.setattr(_accel, "_SOURCE", kernel_copy(tmp_path, edit))
    monkeypatch.setattr(_accel, "_CACHE_DIR", tmp_path / "cache")


def kernel_copy(directory: Path, edit=None) -> Path:
    """A copy of _accel.c in `directory`, with `edit`, (text, replacement), applied.

    The text must occur in _accel.c, so a mutant cannot silently stop applying.
    """
    from ascon_aead import _accel

    source = Path(_accel._SOURCE).read_text()
    if edit is not None:
        assert edit[0] in source, f"mutant {edit!r} no longer matches _accel.c"
        source = source.replace(*edit)
    copy = directory / "_accel.c"
    copy.write_text(source)
    return copy


#: The KAT records with no PT, AD of 0 to 32 bytes: the mutant tests' head of each file.
KAT_HEAD = 33

#: name -> (apply(monkeypatch), earliest KAT count whose CT must diverge)
BUG_MUTANTS = {
    "wrong round constants": (
        # aead imports permute by name, so its phases see only a stand-in set there
        _edit(permutation, "permute", ("x2 ^= ROUND_CONSTANTS[index]", "x2 ^= index + 1"),
              also=(aead,)),
        1,
    ),
    "left instead of right rotation": (
        _edit(permutation, "_linear",
              *((f"x{i} >> {r} | x{i} << (64 - {r})", f"x{i} << {r} | x{i} >> (64 - {r})")
                for i, pair in enumerate(permutation.ROTATIONS) for r in pair)),
        1,
    ),
    "missing linear-layer input XOR": (
        _edit(permutation, "_linear", *((f"(x{i} ^ (x{i} >>", f"((x{i} >>") for i in range(5))),
        1,
    ),
    "missing 0*||K initialization XOR": (
        _edit(aead, "initialize",
              ("return state._replace(s3=state.s3 ^ k1, s4=state.s4 ^ k2)", "return state")),
        1,
    ),
    "extra permutation on last data block": (
        _edit(aead, "encrypt_data",
              ("return _duplex(state, params, plaintext, ENCRYPT)",
               "state, ciphertext = _duplex(state, params, plaintext, ENCRYPT)\n"
               "    return permute(state, params.rounds_b), ciphertext")),
        1,
    ),
    "missing permutation after final AD block": (
        _edit(aead, "process_associated_data",
              ("state = permute(_duplex(state, params, ad, ABSORB)[0], params.rounds_b)",
               "state = _duplex(state, params, ad, ABSORB)[0]")),
        2,
    ),
    "missing domain separator": (
        _edit(aead, "process_associated_data",
              ("return state._replace(s4=state.s4 ^ 1)", "return state")),
        1,
    ),
    "pad every block": (
        # the guard dropped: a whole block takes 0x80 too, in its top byte,
        # where the pad's shift taken mod the rate's width puts it (a
        # negative shift would raise, not diverge)
        _edit(aead, "_duplex", ("if low:", "if True:"),
              ("0x80 << low - 8", "0x80 << (low - 8) % (8 * rate)")),
        9,
    ),
    "permute before the first block": (_edit(aead, "_duplex", ("if off:", "if True:")), 1),
}

#: A negative control for the control-flow test: `initialize` branches on a
#: key bit and changes no output, so only its control flow gives it away.
KEY_BIT_BRANCH = _edit(
    aead, "initialize",
    ("    return state._replace(s3=",
     "    if k1 & 1:\n        state = state._replace()\n    return state._replace(s3="),
)


#: name -> (text in _accel.c, its replacement); every match is replaced.
KERNEL_MUTANTS = {
    "wrong round constants": (
        "s = round_r(round_r(s, nc), nc + 0x0f);",
        "s = round_r(round_r(s, nc), nc + 0x10);",
    ),
    "left instead of right rotation": (
        "#define ROTR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))",
        "#define ROTR(x, n) (((x) << (n)) | ((x) >> (64 - (n))))",
    ),
    "missing linear-layer input XOR": ("^= ROTR(", "= ROTR("),
    "missing 0*||K initialization XOR": ("    s.x3 ^= k1;\n    s.x4 ^= k2;\n", ""),
    "extra permutation on last data block": (
        "s = duplex(s, in, out, len, rate, rounds_b, mode);",
        "s = duplex(s, in, out, len, rate, rounds_b, mode);\n    s = permute(s, rounds_b);",
    ),
    "missing permutation after final AD block": (
        "s = permute(duplex(s, ad, NULL, adlen, rate, rounds_b, ABSORB), rounds_b);",
        "s = duplex(s, ad, NULL, adlen, rate, rounds_b, ABSORB);",
    ),
    "missing domain separator": ("s.x4 ^= 1;", ""),
    "pad every block": (
        "        s = permute(s, rounds);\n    }",
        "        s.x0 ^= 0x8000000000000000u;\n        s = permute(s, rounds);\n    }",
    ),
    "permute before the first block": (
        "    unsigned char r[16];\n", "    unsigned char r[16];\n    s = permute(s, rounds);\n"
    ),
}

#: Negative controls for the kernel's control-flow test, as edits of
#: _accel.c: a branch on a key bit that changes no output, and a tag
#: compare that returns at the first differing 8-byte word.
KERNEL_KEY_BIT_BRANCH = (
    "    s = permute(s, 12);\n    s.x3 ^= k1;",
    "    s = permute(s, 12);\n    if (k1 & 1)\n        s.x0 ^= 0;\n    s.x3 ^= k1;",
)
EARLY_EXIT_COMPARE = (
    "    if (mode == DECRYPT)\n"
    "        return (s.x3 ^ k1 ^ load64(tag)) | (s.x4 ^ k2 ^ load64(tag + 8));",
    "    if (mode == DECRYPT) {\n"
    "        if (s.x3 ^ k1 ^ load64(tag))\n"
    "            return 1;\n"
    "        return s.x4 ^ k2 ^ load64(tag + 8);\n"
    "    }",
)

#: A kernel bug with no twin on the reference path, which does not hold x2
#: complemented: k2 enters the state as it is, not as ~k2, so x2 starts off
#: by all ones.  The KAT gate must catch it by record 1.
UNCOMPLEMENTED_K2 = ("k1, ~k2, load64(nonce)", "k1, k2, load64(nonce)")

#: A negative control for the thread test, as an edit of _accel.c: the
#: block loop keeps the state in one static variable, which calls that
#: overlap in C share.  It is volatile because gcc -O2 would otherwise keep
#: a static state in registers and only ever store it, so that no call
#: could read another's.
SHARED_STATE = (
    "    for (size_t off = 0; off < last; off += rate) {\n"
    "        s.x0 = rate_word(s.x0, in, out, off, mode);\n"
    "        if (rate == 16)\n"
    "            s.x1 = rate_word(s.x1, in, out, off + 8, mode);\n"
    "        s = permute(s, rounds);\n"
    "    }",
    "    static volatile state shared;\n"
    "    shared = s;\n"
    "    for (size_t off = 0; off < last; off += rate) {\n"
    "        shared.x0 = rate_word(shared.x0, in, out, off, mode);\n"
    "        if (rate == 16)\n"
    "            shared.x1 = rate_word(shared.x1, in, out, off + 8, mode);\n"
    "        shared = permute(shared, rounds);\n"
    "    }\n"
    "    s = shared;",
)

#: name -> (backend, edit): the tag check broken on one backend.  A kernel
#: edit is (text in _accel.c, its replacement); a pure one is applied as
#: BUG_MUTANTS are.
FORGERY_MUTANTS = {
    "kernel ignores the compare result": ("kernel", ("return diff != 0;", "return 0;")),
    "pure path skips compare_digest": (
        "pure",
        _edit(aead, "decrypt", ("hmac.compare_digest(finalize(state, params, key), tag)",
                                "finalize(state, params, key)")),
    ),
}
