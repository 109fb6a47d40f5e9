"""The result records are immutable NamedTuples with the dataclass-style
repr, and the witness fields are the keys ``roots --interlace`` prints."""

import json

import pytest

from stirperm.cli import main
from stirperm.distribution import moments_exact
from stirperm.permutations import StirlingPermutation, word_statistics
from stirperm.sturm import GapWitness, certify_real_roots, interlace_certificate
from stirperm.triangle import locate_mode
from stirperm.verify import CheckResult

RECORDS = {
    "Moments": lambda: moments_exact(4),
    "StatCounts": lambda: word_statistics((1, 1, 2, 2)),
    "StirlingPermutation": lambda: StirlingPermutation.from_word(4, (3, 3, 4, 4, 1, 2, 2, 1)),
    "RealRootCertificate": lambda: certify_real_roots(4),
    "GapWitness": lambda: interlace_certificate(4).witnesses[0],
    "InterlaceCertificate": lambda: interlace_certificate(4),
    "ModeReport": lambda: locate_mode(5),
    "CheckResult": lambda: CheckResult("suite", "name", True),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_with_a_named_repr(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    assert record == tuple(getattr(record, f) for f in record._fields)


def test_gap_witness_fields_are_the_printed_keys(capsys):
    assert main(["roots", "--n", "4", "--interlace"]) == 0
    printed = json.loads(capsys.readouterr().out)["interlacing"]["witnesses"]
    witness = interlace_certificate(4).witnesses[0]
    assert list(witness._asdict()) == list(GapWitness._fields) == [
        "lower", "upper", "sign_at_lower", "sign_at_upper",
    ]
    assert all(set(w) == {*GapWitness._fields, "root_count"} for w in printed)
