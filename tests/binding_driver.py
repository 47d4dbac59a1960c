"""Memory-safety driver for the kernel module's two entry points.

test_aead.py builds src/ascon_aead/_kernelmodule.c with _accel.c under
AddressSanitizer and UndefinedBehaviorSanitizer and runs this script in a
child interpreter that allocates with malloc and has the sanitizer
runtimes preloaded:

    PYTHONMALLOC=malloc LD_PRELOAD=... python binding_driver.py MODULE-PATH

For both variants, both directions and message lengths on both sides of
the module's GIL threshold, it passes each argument as every bytes-like
kind, which must give the all-`bytes` result, and as every value the
module refuses, which must raise the kind of error the pure path raises
for it.  A read or write outside a buffer, or a reference dropped twice,
stops the run.  It prints the number of cases and exits 0 when every case
passed.  test_aead.py's bytes-like test draws from the same argument kinds."""

import sys
from importlib.machinery import ExtensionFileLoader, ModuleSpec

from ascon_aead import aead


class Bytes(bytes):
    """A bytes subclass, which both paths read as the bytes it holds."""


def strided(value: bytes) -> memoryview:
    """A non-contiguous memoryview that holds `value`."""
    return memoryview(bytes(b for byte in value for b in (byte, 0xFF)))[::2]


def released(value: bytes) -> memoryview:
    """A memoryview of `value`, released."""
    view = memoryview(value)
    view.release()
    return view


#: Every bytes-like kind that both paths read as the bytes it holds
VALID_KINDS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview,
               "subclass": Bytes, "strided": strided}
#: What both paths refuse whatever its length: with a TypeError, or for a
#: released view with the ValueError that memoryview() raises
WRONG_TYPES = {"str": lambda v: "s" * len(v), "int": len, "list": list,
               "none": lambda v: None, "released": released}
#: What both paths refuse for an argument of fixed length
WRONG_LENGTHS = {"short": lambda v: v[:-1], "long": lambda v: v + b"\0"}


def outcome(call):
    """What `call()` returns, or the type and message of what it raises."""
    try:
        return call()
    except (TypeError, ValueError, aead.AuthenticationFailure) as exc:
        return type(exc), str(exc)


def main(path: str) -> int:
    name = "ascon_aead._kernel"
    loader = ExtensionFileLoader(name, path)
    kernel = loader.create_module(ModuleSpec(name, loader, origin=path))
    loader.exec_module(kernel)
    aead._accel_backend = False  # aead's own calls take the pure path
    key, nonce = bytes(range(16)), bytes(range(16, 32))
    cases = 0
    for params in (aead.ASCON_128, aead.ASCON_128A):
        iv = params._iv
        for length in (0, 17, 2100):  # 2 KiB and over runs without the GIL
            ad, pt = bytes(range(7)), bytes(i % 251 for i in range(length))
            ct, tag = kernel.encrypt(iv, key, nonce, ad, pt)
            for direction, args in (("encrypt", [iv, key, nonce, ad, pt]),
                                    ("decrypt", [iv, key, nonce, ad, ct, tag])):
                expected = getattr(kernel, direction)(*args)
                for position, value in enumerate(args):
                    sized = position in (0, 1, 2, 5)  # the IV, the key, the nonce, the tag
                    kinds = {**VALID_KINDS, **WRONG_TYPES, **(WRONG_LENGTHS if sized else {})}
                    for kind in kinds.values():
                        changed = list(args)
                        changed[position] = kind(value)
                        got = outcome(lambda: getattr(kernel, direction)(*changed))
                        if kind in VALID_KINDS.values():
                            ok = got == expected
                        elif position == 0:  # aead takes a VariantParams, not the IV
                            ok = type(got) is tuple and got[0] in (TypeError, ValueError)
                        else:  # the kind of error aead raises on the pure path
                            ok = type(got) is tuple and got[0] == outcome(
                                lambda: getattr(aead, direction)(params, *changed[1:]))[0]
                        if not ok:
                            print(f"{direction} {params.name} {length} B, argument {position}:"
                                  f" {got!r}", file=sys.stderr)
                            return 1
                        cases += 1
    print(f"{cases} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
