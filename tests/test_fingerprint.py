"""Pinned run fingerprints.

Every optimizer on sphere, rastrigin and whitley at d = 2 and d = 20, and on
the two-variable goldstein_price and cross_in_tray at d = 2, with a fixed
seed and budget, must reproduce these exact values: the best fitness
and the total path distance (as ``float.hex``) and the sha256 of the fitness
history's float64 bytes. A change that moves any float in a run shows up
here as a failure; a deliberate drift must update the table and say so.

Each case runs twice: once with the registry objective from
``make_objective`` (population evaluation in one batched call) and once with
the same evaluator wrapped in ``np.vectorize(..., signature="(d)->()")``,
which calls it once per point. Both must give the pinned values.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ember import OptimizerSpec, domain_box, make_objective, run_optimizer

AGENTS = 12
ITERATIONS = 40
SEED = 7

# (algorithm, function, dimension): (best_fitness, total_distance, history sha256)
FINGERPRINTS = {
    ("ffo", "cross_in_tray", 2): (
        "-0x1.0610690b96805p+1",
        "0x1.4017a4aa557fep+12",
        "0bdf7e778e32d19fa7b289456478ca98a826b6a756e355ae33cfd52a26753b4c",
    ),
    ("ffo", "goldstein_price", 2): (
        "0x1.f40c58d64885dp+1",
        "0x1.c5451da386e56p+9",
        "01b5f427c79b8bb691d89bf90105e540c588b4cb6ec86ee409a06b72de8d86a8",
    ),
    ("ffo", "rastrigin", 2): (
        "0x1.480ff925b4b60p+2",
        "0x1.363a95b494eaap+11",
        "28ee2bbd62bafd7f0e912e88d2e5ceb88b8ff2dbe1b184a3867c6efe4b8e0b16",
    ),
    ("ffo", "rastrigin", 20): (
        "0x1.f531c2d181b18p+7",
        "0x1.0dff50afbe2d0p+13",
        "2cd3bd80f468e36f4623380bd9d8151ed1a2c6221184d91ccc0d562d1ef3b9d5",
    ),
    ("ffo", "sphere", 2): (
        "0x1.19b8693425d8ap-4",
        "0x1.3ef53b2507f48p+11",
        "6f0cb5d8baf2005f6de7852cfe12417c96139a685c2c525411f9e69ff0e1a0d7",
    ),
    ("ffo", "sphere", 20): (
        "0x1.3d65c09de95d5p+6",
        "0x1.10a5a329c9addp+13",
        "da53f96d30d1c29bd1ba9b178da3ff7e53c835bec1f6279f1fabdcb7c2a31c02",
    ),
    ("ffo", "whitley", 2): (
        "0x1.b1ff7e725f61cp+2",
        "0x1.2d8a8cdb9291ap+12",
        "9a66628ed20d169930bc285b3eca85f4691ef01833c76915edad3d3c110b21ea",
    ),
    ("ffo", "whitley", 20): (
        "0x1.d17c719757b0ep+29",
        "0x1.06b8c7c3580ddp+14",
        "d7d130521f66966a87c0f2bab16fcc95d0da1e6c56b70279fa29ad20afff7146",
    ),
    ("ga", "cross_in_tray", 2): (
        "-0x1.073e7fc2ece7ep+1",
        "0x1.6f1035d18e94ap+9",
        "35ff13a819bb42aed233b570641caeffc44abe5f6508fb251dfbc4e56e4fecd1",
    ),
    ("ga", "goldstein_price", 2): (
        "0x1.68cab7c15b509p+5",
        "0x1.9f77145575ac8p+6",
        "4f6bb2118158e80c3917e468c3cc9b5d0609b9ba0f6d781bf111a3ef6d9b5575",
    ),
    ("ga", "rastrigin", 2): (
        "0x1.6c2c147f76940p+0",
        "0x1.2c7b85ecc62dcp+8",
        "dba52e88b0ad2e9448b5637aab83c8d6ec0061dcf423feea57e79f0ff7002777",
    ),
    ("ga", "rastrigin", 20): (
        "0x1.4140082a8b6f1p+7",
        "0x1.45f742f0c61dap+11",
        "34c2400df3d9130c0bbcd42ba8c58b30c9af474982eef30033040b26efca8a33",
    ),
    ("ga", "sphere", 2): (
        "0x1.1c7eb73e4276cp-9",
        "0x1.ad99000fa108fp+7",
        "08c3e49be69492c9071b25413af883ac5b8d5a1eaad072f1cf260fdccf25b795",
    ),
    ("ga", "sphere", 20): (
        "0x1.eda8e47fd5058p+4",
        "0x1.00ac290b1a8afp+11",
        "ad9ce702a660c61a713356bfcf21dfbf80cb510e8cf10cf29ca0f6a756e18f15",
    ),
    ("ga", "whitley", 2): (
        "0x1.07e310f29a7b8p+1",
        "0x1.b083fbf1ce5e3p+8",
        "aa1a5401d8dd5e4dcebefd60fdd346a32f35a03a9452b1beed6ff46af8be4cc4",
    ),
    ("ga", "whitley", 20): (
        "0x1.7ea0392b37a74p+25",
        "0x1.0fae127f43d35p+12",
        "1075bee6be40d64b67931aa6b6fa86ef5e072c63e2bdb7ac355400091e2c83a5",
    ),
    ("hs", "cross_in_tray", 2): (
        "-0x1.fd218cb586346p+0",
        "0x1.0b9127d90b60cp+8",
        "6f5eb88a38929b985c82315d8443a4a048223e50f8118e2cfeeb097cb60e664f",
    ),
    ("hs", "goldstein_price", 2): (
        "0x1.8be38c9558e54p+6",
        "0x1.6ca514489d0bdp+5",
        "471f6512a8cfba31b5aec192dc3c4d8b3e4edc22e7f1688934b26e5054cf9be8",
    ),
    ("hs", "rastrigin", 2): (
        "0x1.22fa2ebef6331p+3",
        "0x1.3783d2fbfce3bp+7",
        "817f4d3df25dddffe0dd9e16d5481922ee4b2dd995e5796f8fa304324e27d0d6",
    ),
    ("hs", "rastrigin", 20): (
        "0x1.c837d19dc1473p+7",
        "0x1.2392abf686fc1p+9",
        "ec42f0825f3cef7b0e3098706831751d6ff13d277c552b649610a484024cd0f6",
    ),
    ("hs", "sphere", 2): (
        "0x1.336361f03832bp-2",
        "0x1.b7dfcec36bf9ep+6",
        "1939fb90cc71261a863b2037f9769e25572d08508557beb88f1b4062fbcfb2f5",
    ),
    ("hs", "sphere", 20): (
        "0x1.0f2f3c47e6c98p+6",
        "0x1.14cecf38c5edap+9",
        "6741e4aeeac7987dbb88d46ff3846f4ad04c292edf2e9cb7f317799929aee09c",
    ),
    ("hs", "whitley", 2): (
        "0x1.5743efcfcb2bdp+3",
        "0x1.bfd82a7db5c28p+7",
        "5c6d0d278c8db02d93bbe84b21f71c1935022a8fbe79288e7abbc985c9dd5bc7",
    ),
    ("hs", "whitley", 20): (
        "0x1.9a4713d89f41cp+30",
        "0x1.06cf73a30c279p+10",
        "de662bf569de42ef8d05adbc546bc51d173aeb39aedae5bbcdc2f9a701a16537",
    ),
    ("pso", "cross_in_tray", 2): (
        "-0x1.08039cbe2760ap+1",
        "0x1.8e9b337dd6c08p+9",
        "5525b41cb6dcb2c47fa1f71c373824c2fef2f6fc6ed8afbadeb12c76e0ed3cdc",
    ),
    ("pso", "goldstein_price", 2): (
        "0x1.80005984f3dc0p+1",
        "0x1.621ebb4b5b46ap+7",
        "7d903504567733f164cf5737f97b7e8e776f5b4b6459197bc2e32c211f1122f1",
    ),
    ("pso", "rastrigin", 2): (
        "0x1.b96a0bb6f4000p-7",
        "0x1.9ea2b0bf418a0p+8",
        "8f4c7b40c6e7928d433319eb41bee714c230c9577d62e4d59681c3d22012f60c",
    ),
    ("pso", "rastrigin", 20): (
        "0x1.009a8dc09b730p+7",
        "0x1.6e3ec2accc3cbp+10",
        "b4190a48266eda3806ad029f8449e4ea334df7ccb2fa5336c2603cc5c8c2423a",
    ),
    ("pso", "sphere", 2): (
        "0x1.0261bfe1df9b2p-27",
        "0x1.0602df6a750cap+8",
        "b5fb5f2a556f839531117038bb74c1c8d4cee1fdc54b18e5e5e500936fc12196",
    ),
    ("pso", "sphere", 20): (
        "0x1.8a4ff90e5f843p+2",
        "0x1.539ae4c2061c2p+10",
        "3e78812a617c787f6442457a926ff464752b4c88b89db46a60095cb3727815f9",
    ),
    ("pso", "whitley", 2): (
        "0x1.52e47842bff14p-2",
        "0x1.0ff3dae308a50p+9",
        "37090b8b3a265f095722afcd2e7843e70cad9f66211212b370cba3d64aa3a66a",
    ),
    ("pso", "whitley", 20): (
        "0x1.739e8b9cf0911p+17",
        "0x1.d62e4cd91894fp+11",
        "6cd2bbb8ecf9d0fcec140a4a61a315c0926a12457fb1b41d787d9ff31b6f4e60",
    ),
    ("sa", "cross_in_tray", 2): (
        "-0x1.d457957e2c375p+0",
        "0x1.4f6fe7a37e383p+6",
        "3a6d73761ea8cc05c304da0c1a5e7449563279a80f896965eaf175a96e7740d0",
    ),
    ("sa", "goldstein_price", 2): (
        "0x1.744c0c82f3d51p+3",
        "0x1.6de6b70ded02ap+2",
        "c61698b93fb50ce93ebb0a1396b1c50ca524d9489256538715381a7d4a9729b6",
    ),
    ("sa", "rastrigin", 2): (
        "0x1.3913cfdd52bf4p+3",
        "0x1.22ba92b19114ep+5",
        "061a1021c3fc86d8e27714884be9b31e45d925e92a3a5d8c54c703454a5036b8",
    ),
    ("sa", "rastrigin", 20): (
        "0x1.0bc0545dab500p+8",
        "0x1.27a337b33bb01p+6",
        "9f02703a5cf9ee785cd02daac80b5b231ccdea1ecbac95bbd0b1b094236baf00",
    ),
    ("sa", "sphere", 2): (
        "0x1.3a22d863e9a4dp-3",
        "0x1.30f84feed752ep+5",
        "ee978fde6060fba84dd0d9c9381acdcbe1a9e8cb6399373fcfc98c7cf0e4f055",
    ),
    ("sa", "sphere", 20): (
        "0x1.19df618bf2ad9p+7",
        "0x1.d913356ac427dp+6",
        "7c4b6af2c8753c1cfb9986ecc8d99efd379b8e9fea5efff72082d543fe68068b",
    ),
    ("sa", "whitley", 2): (
        "0x1.08e7a4551b38dp+2",
        "0x1.dc0fa00a45585p+3",
        "b305e97d78ee84236a7f336d12288be61fdb83e9c6994791ef9d1c190608feaa",
    ),
    ("sa", "whitley", 20): (
        "0x1.935f80171faa3p+30",
        "0x1.2f64fa11666c9p+6",
        "8f440df29a0b6a8a444a8be43f4be47326ce8165998bbe0915426f20b5c4f084",
    ),
}


def _fingerprint(outcome):
    history = np.asarray(outcome.fitness_history, dtype=float).tobytes()
    return (
        outcome.best_fitness.hex(),
        outcome.total_distance.hex(),
        hashlib.sha256(history).hexdigest(),
    )


@pytest.mark.parametrize("path", ["batched", "per-row"])
@pytest.mark.parametrize("case", sorted(FINGERPRINTS), ids=lambda c: "-".join(map(str, c)))
def test_run_fingerprint(case, path):
    algorithm, function, dimension = case
    objective = make_objective(function, dimension)
    if path == "per-row":
        evaluator = objective
        objective = np.vectorize(evaluator, signature="(d)->()")
    spec = OptimizerSpec(name=algorithm, max_iter=ITERATIONS, num_agents=AGENTS, seed=SEED)
    outcome = run_optimizer(spec, objective, domain_box(function, dimension))
    assert _fingerprint(outcome) == FINGERPRINTS[case]
