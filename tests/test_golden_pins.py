"""Golden pins on exhaustive injection identity over the 86-function set.

Outcome digests address the campaign cache, the fleet wire and the
service store; report payloads are the bytes the cache persists.
Refactors of the injector or of run-identity threading must leave all
of them byte-identical.  A legitimate change to any input of a digest
(generators, lattice, planner, fault models) or to the payload layout
must update these values in the same commit, and say why.
"""

import hashlib
import json

import pytest

from repro.campaign.digest import outcome_digest
from repro.campaign.store import report_to_payload
from repro.faults import available_models
from repro.injector import FaultInjector, RunSpec
from repro.libc.catalog import BALLISTA_SET, BY_NAME

#: sha256 over the newline-joined outcome digests of BALLISTA_SET.
UNARMED_DIGESTS = "fddeb1be976f0b0db6c0756899f515ea37d8db715e404a6d04c79f0cc2c38ea7"

#: The same sha with exactly one fault model armed at its defaults.
ARMED_DIGESTS = {
    "bitflip": "64da34758e71bb914476cbe56f446703ac1922ca5d00b09ecf094923fa7a819d",
    "callback": "f3c353ca7730d2907bb40b93c3860ba4f8a6c7bc2542044821a3fab50c141e30",
    "ctype_table": "7244c2b1ef2eb591d50d84abafb4be99b6f0adf0c570a1b0a580b7bdf7cad6dc",
    "format": "afb6ae5e6ac9152b036c75334a1ecf4c156b755a916006f1e8e18cc6a5de7973",
    "resource": "dcb43263e47da73d9a871c0cd0ac33e3aa1f4c3794ffc91d50038bda0f40e474",
    "signal": "8c25bdfe6b4246452011f339ab9333776a30b4abbcd6b37a5cf8b01c283dc6bf",
}

#: sha256 of the store's on-disk encoding of one exhaustive report.
PAYLOADS = {
    "abs": "d5b271b08914c04c9cc84854a2c08568051679e5a09ebbf56a7af93cc3f39bb4",
    "strcpy": "c731613056cb32d251cb82268da000e70055f885701a4c8fa12e11f3ea806ecd",
    "fopen": "d55d199eb9bc4ae428b5b71b37450209475468fae809347eef422ba3bc0a7fa7",
}

#: fopen with every registered fault model armed (scenario evidence
#: rides in the payload).
FOPEN_ALL_MODELS = "6a34a3b1635cc97274f674be519436575a5c1d87d83688642114ecd74f7e3a44"

#: Payload shas of the models that read format strings, mode strings
#: and element arrays: unarmed, then with every fault model armed.
FORMAT_AND_ARRAY_PAYLOADS = {
    "fprintf": (
        "1e7d3e4940f2411ff49f5a6d443d9e905c4d63e6537603c1832fb483c352c0c9",
        "1d49e74bc1889d4fd1876969921ce37c0b4cfb6e0af4743c06849f77646be15b",
    ),
    "freopen": (
        "b102000cb99d9d13cddb686c530a8e49c09fca5cea4a403d66c38c84489b5035",
        "fb63c31318034e3a34819302d86e76af023652a9306e52307bdb208d078df77c",
    ),
    "fscanf": (
        "bbd1d106f1d6863e46bc1207efe183d8fad378b8ab6e7f311217d78531e42238",
        "a8286229b40ec5ae144d4cf39daabe5ba8a8da73205abf9c11616077edafa062",
    ),
    "qsort": (
        "52d0bc67d15b442b1ddb45fd2f0caae63c71e05b78114108b4e09014707cad56",
        "afc6e9d29d95e44f3a0a5644badc154a010713162b4b742b690a912abef75b47",
    ),
    "strftime": (
        "f143dfbbbab11130350137b7c338694be558736b852e153f481bcc84b3faf611",
        "46900e4572404bd179da9ae15738b8a24e615a0a9a1f61bb80a03f6b13ca4caf",
    ),
}


def _digest_sha(**kwargs) -> str:
    digests = [outcome_digest(spec, **kwargs) for spec in BALLISTA_SET]
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def _payload_sha(name: str, **kwargs) -> str:
    spec = BY_NAME[name]
    report = FaultInjector(spec, **kwargs).run()
    payload = report_to_payload(report, spec.prototype)
    # OutcomeStore.put_payload's exact encoding.
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def test_catalog_is_the_paper_set():
    assert len(BALLISTA_SET) == 86


def test_unarmed_outcome_digests():
    assert _digest_sha() == UNARMED_DIGESTS


def test_every_model_is_pinned():
    assert set(available_models()) == set(ARMED_DIGESTS)


@pytest.mark.parametrize("model", sorted(ARMED_DIGESTS))
def test_armed_outcome_digests(model):
    assert _digest_sha(run=RunSpec(fault_models=(model,))) == ARMED_DIGESTS[model]


@pytest.mark.parametrize("name", sorted(PAYLOADS))
@pytest.mark.parametrize("plan", ["shared", None])
def test_report_payload_bytes(name, plan):
    assert _payload_sha(name, plan=plan) == PAYLOADS[name]


def test_faulted_report_payload_bytes():
    assert _payload_sha("fopen", run=RunSpec(fault_models=available_models())) == FOPEN_ALL_MODELS


@pytest.mark.parametrize("name", sorted(FORMAT_AND_ARRAY_PAYLOADS))
def test_format_and_array_payload_bytes(name):
    unarmed, armed = FORMAT_AND_ARRAY_PAYLOADS[name]
    assert _payload_sha(name) == unarmed
    assert _payload_sha(name, run=RunSpec(fault_models=available_models())) == armed
