"""Seeded fuzz of the channel wire format.

Valid channel files are mutated (an entry swapped for a non-number, the
nesting depth changed, a row dropped or duplicated, the text truncated), and
`power` and `convert` must exit 0, 2 or 3 on every one, never with a
traceback. A file that still holds a `true` is never a channel, so neither
command exits 0 on it. A `convert` that fails leaves an existing `--out`
unchanged.

The same texts, and texts with one number of the Kraus list swapped for a
malformed or edge-case number token, must load as the JSON reference
(`json.loads` and `channel_from_dict`) loads them: to the same Kraus bytes,
or to the same exception type.
"""

import json
import random
import re

import mrpower as mp
from mrpower.cli import main
from mrpower.serialize import SchemaError, channel_from_dict, channel_to_dict, load_channel

FUZZ_SEED = 61
CASES = 400
ALLOWED_EXITS = (0, 2, 3)
ODD_VALUES = ("entry", None, True, 10**400, float("nan"), float("inf"))


def base_channels():
    rng = mp.SeededRng(FUZZ_SEED)
    channels = [
        mp.dephasing_channel(2),
        mp.example_channels()["g"],
        mp.random_channel(2, 3, "general", rng.spawn(0)),
        mp.random_channel(3, 2, "general", rng.spawn(1)),
    ]
    return [channel_to_dict(channel) for channel in channels]


def random_list(wire, depth, rng):
    """A random nested list up to `depth` levels below wire["kraus"], the
    Kraus list (0), an operator (1), a row (2) or an entry pair (3), stopping
    higher up where an earlier mutation left no non-empty list to descend to."""
    node = wire["kraus"]
    for _ in range(depth):
        children = [child for child in node if isinstance(child, list) and child]
        if not children:
            break
        node = rng.choice(children)
    return node


def swap_entry(wire, rng):
    node = random_list(wire, 3, rng)
    if node:
        node[rng.randrange(len(node))] = rng.choice(ODD_VALUES)


def change_depth(wire, rng):
    node = random_list(wire, rng.randrange(3), rng)
    if not node:
        return
    index = rng.randrange(len(node))
    if rng.random() < 0.5 or not isinstance(node[index], list) or not node[index]:
        node[index] = [node[index]]
    else:
        node[index] = node[index][0]


def drop_or_duplicate_row(wire, rng):
    node = random_list(wire, 1, rng)
    if not node:
        return
    index = rng.randrange(len(node))
    if rng.random() < 0.5:
        del node[index]
    else:
        node.insert(index, json.loads(json.dumps(node[index])))


MUTATIONS = (swap_entry, change_depth, drop_or_duplicate_row)


def mutated_text(rng, wires):
    wire = json.loads(json.dumps(rng.choice(wires)))
    if rng.random() < 0.2:
        text = json.dumps(wire)
        return text[: rng.randrange(len(text))]
    for _ in range(rng.randint(1, 2)):
        rng.choice(MUTATIONS)(wire, rng)
    return json.dumps(wire)  # NaN and Infinity as Python's json writes them


def fuzz_texts(rng, wires):
    # the unmutated files first: the mutations start from valid input
    texts = [json.dumps(wire) for wire in wires]
    return texts + [mutated_text(rng, wires) for _ in range(CASES)]


def test_mutated_channel_files_exit_cleanly(tmp_path, capsys):
    texts = fuzz_texts(random.Random(FUZZ_SEED), base_channels())
    path, out = tmp_path / "mutated.json", tmp_path / "converted.json"
    seen = set()
    booleans = 0
    for case, text in enumerate(texts):
        path.write_text(text, encoding="utf-8")
        power_code = main(["power", str(path)])
        out.write_text("an earlier result", encoding="utf-8")
        convert_code = main(["convert", str(path), "--out", str(out)])
        capsys.readouterr()
        context = f"case {case}: {text[:200]}"
        assert power_code in ALLOWED_EXITS, context
        assert convert_code in ALLOWED_EXITS, context
        if convert_code != 0:
            assert out.read_text(encoding="utf-8") == "an earlier result", context
        if "true" in text:
            assert power_code != 0 and convert_code != 0, context
            booleans += 1
        seen.add(convert_code)
    assert seen == set(ALLOWED_EXITS)
    assert booleans > 0


# Number tokens that JSON rejects or reads otherwise than `float`, tokens
# that `float` rejects whole but strtod reads in part, and valid edge cases:
# wherever one lands, the file loads as the reference loads it.
NUMBER_TOKENS = (
    ".5", "5.", "+1", "01", "-01", "00", "-0", "-0.0", "1E5", "1e+5", "1.e5", "1e",
    "--1", "0x1", "NaN", "Infinity", "1e400", "9" * 5000, "1 2", "",
    "1-2", "1.2.3", "1e5e5", "-",
)
CASES_PER_TOKEN = 150
NUMBER = re.compile(r"-?[0-9][0-9.e+-]*")


def swap_number(rng, text, token):
    spans = [match.span() for match in NUMBER.finditer(text, text.index('"kraus": '))]
    start, end = rng.choice(spans)
    return text[:start] + token + text[end:]


def reference_outcome(text):
    try:
        obj = json.loads(text)
    except ValueError:
        return SchemaError
    try:
        return channel_from_dict(obj).kraus.tobytes()
    except Exception as exc:  # the type is the outcome
        return type(exc)


def test_loads_as_the_json_reference(tmp_path):
    rng = random.Random(FUZZ_SEED)
    wires = base_channels()
    texts = fuzz_texts(rng, wires)
    for token in NUMBER_TOKENS:
        for _ in range(CASES_PER_TOKEN):
            text = json.dumps(rng.choice(wires)) + rng.choice(("", "\n"))
            texts.append(swap_number(rng, text, token))
    path = tmp_path / "fuzzed.json"
    loaded = 0
    for case, text in enumerate(texts):
        path.write_text(text, encoding="utf-8")
        try:
            outcome = load_channel(str(path)).kraus.tobytes()
            loaded += 1
        except Exception as exc:
            outcome = type(exc)
        assert outcome == reference_outcome(text), f"case {case}: {text[:200]}"
    assert loaded > len(wires)  # some swaps leave a channel, e.g. -0 for 0.0
