"""Stream pins: every VG family, on every access path, draws fixed bytes.

Scenario identity (Section 3.2) means scenario ``j``, or block ``b`` of
validation chunk ``c``, regenerates the same realization whenever it is
asked for.  These pins hold the SHA-256 of what each
:class:`ScenarioGenerator` access path returns, per registered VG
family, so a change to how generators are keyed or re-keyed cannot
silently move a draw.  They hold for the numpy the suite runs on; a
numpy release that changes a distribution's algorithm moves them, and
``python tests/mcdb/test_stream_pins.py`` prints the current table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import STREAM_OPTIMIZATION, STREAM_VALIDATION, SPQConfig
from repro.db.expressions import parse_expression
from repro.db.relation import Relation
from repro.mcdb import (
    BootstrapVG,
    DiscreteVariantsVG,
    ExponentialNoiseVG,
    GaussianCopulaVG,
    GaussianNoiseVG,
    GeometricBrownianMotionVG,
    MixtureVG,
    ParetoNoiseVG,
    StochasticModel,
    StudentTNoiseVG,
    UniformNoiseVG,
)
from repro.mcdb.expectation import ExpectationEstimator
from repro.mcdb.integration import build_integration_variants
from repro.mcdb.scenarios import MODE_TUPLE_WISE, ScenarioGenerator
from repro.utils.rngkeys import make_generator

N_ROWS = 12
SEED = 2024
ROWS = np.array([10, 1, 4, 5])


def _relation() -> Relation:
    rows = np.arange(N_ROWS, dtype=float)
    return Relation(
        "t",
        {
            "base": 1.0 + rows,
            "sd": 0.5 + 0.1 * rows,
            "price": 50.0 + 5.0 * rows,
            "drift": np.full(N_ROWS, 0.001),
            "volatility": 0.01 + 0.002 * (rows // 3),
            "sell_in_days": np.tile([1.0, 5.0, 5.0, 20.0], 3),
            "stock": np.repeat(["s0", "s1", "s2", "s3"], 3).astype(object),
        },
    )


def _variants(family: str) -> np.ndarray:
    base = 1.0 + np.arange(N_ROWS, dtype=float)
    return build_integration_variants(
        base, 4, family, make_generator(7, 0), family_param=2.0
    )


#: One VG per registered family (two for Pareto's shape layouts).
FAMILIES = {
    "gaussian": lambda: GaussianNoiseVG("base", np.linspace(0.5, 2.0, N_ROWS)),
    "pareto_uniform_shape": lambda: ParetoNoiseVG("base", scale=0.5, shape=1.0),
    "pareto_per_row_shape": lambda: ParetoNoiseVG(
        "base", scale=np.linspace(0.2, 1.0, N_ROWS), shape=np.linspace(1.0, 3.0, N_ROWS)
    ),
    "uniform": lambda: UniformNoiseVG("base", low=-1.0, high=np.linspace(0.5, 3.0, N_ROWS)),
    "exponential": lambda: ExponentialNoiseVG("base", rate=np.linspace(0.5, 2.0, N_ROWS)),
    "student_t": lambda: StudentTNoiseVG("base", dof=3.0, scale=0.7),
    "discrete": lambda: DiscreteVariantsVG(
        np.arange(N_ROWS * 3, dtype=float).reshape(N_ROWS, 3) ** 1.5
    ),
    "integration": lambda: DiscreteVariantsVG(_variants("student-t")),
    "gbm": lambda: GeometricBrownianMotionVG(group_column="stock"),
    "copula": lambda: GaussianCopulaVG(
        "base", scale="sd", rho=0.6, group_column="stock"
    ),
    "mixture": lambda: MixtureVG(
        [GaussianNoiseVG("base", 1.0), UniformNoiseVG("base", low=-2.0, high=2.0)],
        weights=[0.3, 0.7],
        shared=False,
    ),
    "mixture_shared": lambda: MixtureVG(
        [GaussianNoiseVG("base", 1.0), ExponentialNoiseVG("base", rate=2.0)]
    ),
    "bootstrap": lambda: BootstrapVG(
        np.arange(N_ROWS * 5, dtype=float).reshape(N_ROWS, 5) % 7.0, joint=False
    ),
}


def _model(family: str) -> StochasticModel:
    # A second attribute gives "V" attribute id 1, so the pins also
    # cover a key whose attribute part is not zero.
    return StochasticModel(
        _relation(),
        {"A": GaussianNoiseVG("price", 1.0), "V": FAMILIES[family]()},
    )


def _scenario_wise(model, stream=STREAM_OPTIMIZATION):
    return ScenarioGenerator(model, SEED, stream)


def _tuple_wise(model):
    return ScenarioGenerator(
        model, SEED, STREAM_VALIDATION, mode=MODE_TUPLE_WISE, substream=3
    )


def _realize(model):
    generator = _scenario_wise(model)
    return [generator.realize("V", j) for j in (0, 1, 2, 7, 4095)]


def _matrix_scenario_wise(model):
    generator = _scenario_wise(model)
    return [generator.matrix("V", 9), generator.matrix("V", 5, rows=ROWS)]


def _matrix_tuple_wise(model):
    generator = _tuple_wise(model)
    return [
        generator.matrix("V", 9, rows=ROWS),
        generator.matrix("V", 9),
        generator.realize("V", 2, n_scenarios=9),
    ]


def _coefficient_matrix(model):
    expr = parse_expression("V * price + A - 2")
    return [
        _scenario_wise(model).coefficient_matrix(expr, 6),
        _tuple_wise(model).coefficient_matrix(expr, 6, rows=ROWS),
    ]


def _expectation_mean(model):
    config = SPQConfig(seed=SEED, n_expectation_scenarios=60)
    return [ExpectationEstimator(model, config)._monte_carlo_attribute_mean("V")]


PATHS = {
    "realize": _realize,
    "matrix_scenario_wise": _matrix_scenario_wise,
    "matrix_tuple_wise": _matrix_tuple_wise,
    "coefficient_matrix": _coefficient_matrix,
    "expectation_mean": _expectation_mean,
}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


#: SHA-256 of each (family, path)'s arrays, as drawn with one fresh
#: ``make_generator`` per key; the re-keyed generators reproduce them.
PINS = {
    ('bootstrap', 'coefficient_matrix'): 'ad73e8f8ff0cf27ea24c5bedd76c4070c13007102ef31396277c19dad503b1eb',
    ('bootstrap', 'expectation_mean'): 'b20d4b48465fbf8575fb51ac6d9332c92400b85b23912a50ff1e74d833436ad1',
    ('bootstrap', 'matrix_scenario_wise'): '9c7afe74ddcea41361018b015381be66fcf125f377b6792ac4122fbac3a77415',
    ('bootstrap', 'matrix_tuple_wise'): '7448a25e0ee3eb3f6ecfe72bfac35c70cfc30a05ce4bc81f9dfc776c08fee672',
    ('bootstrap', 'realize'): 'be22d98700bb248c664e009b1ad101dd4a8d6bf7b5ef8e52407a4101ea3001c2',
    ('copula', 'coefficient_matrix'): 'c9a648d371eebb5524916ddcdab6715bded84063c50e886931ac23d52c3221ac',
    ('copula', 'expectation_mean'): '20408f030c354a8c310f4aec5abf7722ce33d4af370da2e1dedda995c7933da6',
    ('copula', 'matrix_scenario_wise'): '8ea35b24c120efd835300f2248f54216b48b3b45ccce05d7b1b9159ad229e4e4',
    ('copula', 'matrix_tuple_wise'): '332ac31ec42d149907b6ed654b6e4b51afbf318920816eaaf5d6249ba4809fda',
    ('copula', 'realize'): '1adf35fde1c12cf528b051de6f6aae874ce638395634e8052b31f31587bf9391',
    ('discrete', 'coefficient_matrix'): '6aadbaeff28d3813dddeff7fea7cdf09aa0414ab099f0cbc258d8e4b831bf7ed',
    ('discrete', 'expectation_mean'): '675ce87c23901558421febf0aa8b3cfc085cec7364c4cf9ca36fc0e31c39e33c',
    ('discrete', 'matrix_scenario_wise'): '48157121c27c778d54066819aa77d415dd9e83d527fe7ad5a474b86fb8421b41',
    ('discrete', 'matrix_tuple_wise'): '7f8e237b9a4b78e8c25bb8e59752b9ff28f18f9a36ed15554f54b71964a96b14',
    ('discrete', 'realize'): 'dd7418e1a8caa140b8930026eac0bb48a1b8b4d3fbcd887f849e538fdc6dd154',
    ('exponential', 'coefficient_matrix'): 'ff71700eac75196f4caf556cc039cb1b73b2511290ada4fc840c1e3744df18e5',
    ('exponential', 'expectation_mean'): '3f9a74fcc9d6bbd4c212a4bf4d1c6ae9e463b3356da86b04372cf3991f1eb5f2',
    ('exponential', 'matrix_scenario_wise'): '60f64a45726f58ebb4154a6ed317feb459fb1e54eccb532b549d8b8d734c1e0c',
    ('exponential', 'matrix_tuple_wise'): '66575be156735b88705f7052860d65b5ae970565c4d91b2ac82ad5fced5853e0',
    ('exponential', 'realize'): '3ad6b88f3bfa1618ef502676a9b5f38ab73dbc254d8419bc3219cd5f10365353',
    ('gaussian', 'coefficient_matrix'): '1a2ccf92735a7942585b32b39d1f3adf04dfbe03766a84da6ad30aaf4d5e57ea',
    ('gaussian', 'expectation_mean'): '98982ccdeafda10b89167ebd0346eb78882d10f9c97458bade9ccaefb0ae1ccf',
    ('gaussian', 'matrix_scenario_wise'): 'f92bc19c65915b85f07e482e0d62bfbe0516b7200c4b11a6e8112239677eec0c',
    ('gaussian', 'matrix_tuple_wise'): '530e36d1099e2f3633135fa9796f34f82c8d8eb96ea578720c9b4e436f83a417',
    ('gaussian', 'realize'): '0270b9e1b8fb9d215bfb510c75afc603481f8913340d47c6b3f18eb7a0d2167c',
    ('gbm', 'coefficient_matrix'): 'aa4898f2e23169aeec6f8fdf632e0c92fdc1caae1436bed4cc01bbfdfc83ad56',
    ('gbm', 'expectation_mean'): 'd93d5d929b630f8ac50ebe3c0aedd7080b5e946fa68f911c9a2fafdaab6c6b7b',
    ('gbm', 'matrix_scenario_wise'): '8c66abf69dc8ba0c9f04e7bfd2c5a996cdaa704e2f3271321db9636f2bb7e571',
    ('gbm', 'matrix_tuple_wise'): '64f4846bd02f2acfd96c423c96387c0dca55f7363aaa21fddc56468b73279732',
    ('gbm', 'realize'): 'ab7de112b372d32cd867367af6c4b2a891afc8d9f5420bb7823fbef35492eda4',
    ('integration', 'coefficient_matrix'): 'bda36352abcfe86eaafffad8f0f64f4cbcf2e23c9cd620a804c8b96b823c0e12',
    ('integration', 'expectation_mean'): '46dd7de25cada14ae8e2d7162082d2533cea6a0a9cf2b0c9906f2e602a4f0e3a',
    ('integration', 'matrix_scenario_wise'): 'd9a0404db9e4adbfeef637125a2aca1073ce4b9196eb69539b916d4d1b74c8c9',
    ('integration', 'matrix_tuple_wise'): 'c6ac3981b3c7df391041269cefc318c5e2e42e858059aa0d6759b4a5decd7c77',
    ('integration', 'realize'): '81b800c28beaae6c33be3b700ba344a8b035d10d457b83a6c44a487b0b99a66b',
    ('mixture', 'coefficient_matrix'): 'd35c4d26adac497f15c26551445a2523c5b1bb6beccf2fa57b220878acf438e5',
    ('mixture', 'expectation_mean'): '153e14686a66e809bc56be385652bf20c5d1671294a911cb3c2ac96eb7e2d2f7',
    ('mixture', 'matrix_scenario_wise'): 'c890a1994bc223db79b50842b34b0807de109c516cd2eed0bed47c84b191d548',
    ('mixture', 'matrix_tuple_wise'): '4abd74ec813de7cec8dcb53fb6125db16fe225d6975885505dd3de43b616a53f',
    ('mixture', 'realize'): '777b567e421c525191202d13b18a4f90baafe8725831e24fd5e8ebf363328ffa',
    ('mixture_shared', 'coefficient_matrix'): '3f0c80a612c9850381613f349e8c85965572fc7234687995dd8cbbf8449f6c54',
    ('mixture_shared', 'expectation_mean'): '4a23c174438fd9f77f589911214eb5beb1d5ab3a8f14360d29c38819a4a01ce9',
    ('mixture_shared', 'matrix_scenario_wise'): 'eea767a99b02eeca1fab560ed5a965b0769566a744622ff4f5de562885d326dc',
    ('mixture_shared', 'matrix_tuple_wise'): 'cb5ebb802d74ecb443aeca2d4032efdfa2c57b2df55b42920b06be3cd2cc1457',
    ('mixture_shared', 'realize'): 'f2e356644b2eeb4922c8d7d6ee0cb677c39e783af689f2e05981795f17b690f4',
    ('pareto_per_row_shape', 'coefficient_matrix'): 'ae282ed9141ac71679389c72d11002c3d97f8034eb5fb42dfc5154e048960747',
    ('pareto_per_row_shape', 'expectation_mean'): '6583c807d0f7569799d38cdd91bf73c4532f1766b2667d2476c9c268df5b2586',
    ('pareto_per_row_shape', 'matrix_scenario_wise'): 'e48a4adfb8c070a37b5007d6bcc99f6881b7675f009054585a384f6c6f547dc5',
    ('pareto_per_row_shape', 'matrix_tuple_wise'): '6a935fef7855b8d70e3efe4c9c38b169313a28720dafff54d2106f17bc008a32',
    ('pareto_per_row_shape', 'realize'): '21980a7120e3ed60cc960233db392beb57e8d0c56c8c2447cce5e879b9037cd6',
    ('pareto_uniform_shape', 'coefficient_matrix'): 'aed0b09c3b63a4a5fd86a10f6a26e7de0e79f0fc9c6f118cdf46a02d2d59557f',
    ('pareto_uniform_shape', 'expectation_mean'): '1cbb764d82500de1753956deed86f2dac52635513098148030449ad896101171',
    ('pareto_uniform_shape', 'matrix_scenario_wise'): '186a88ae4b03e0abf4befcf8a0d9fa75aee0ef75d19dd0f2fe9cd8c322fab04b',
    ('pareto_uniform_shape', 'matrix_tuple_wise'): '1e35dccf810102215e245e446d448b81152fd04b4244f546cc35bd0fe8e94413',
    ('pareto_uniform_shape', 'realize'): 'f0cb816f8937ed3b92bec079c243bc66b8db4ba3b95d0402050b5dc08cb96e66',
    ('student_t', 'coefficient_matrix'): 'db16db413e5d8507c13866249bf17562b29f56909a3f55c66a52258b087b9806',
    ('student_t', 'expectation_mean'): 'ce406834fca2bc1fba465b417ded138f97f3ea71180a1ba0cf013dbcc1f69e04',
    ('student_t', 'matrix_scenario_wise'): '8693a2c17844ce067208c6de970a78785892aeeffc9d93ed9bee5cb6356501b9',
    ('student_t', 'matrix_tuple_wise'): 'f29cfce9224c410418cf9544bff83d4d2f06c3a4294111b7dba18478a370b8c0',
    ('student_t', 'realize'): 'f8701191ca4e802e27cf5b4688997bfb083b1732a27f47fa85423dfc8eddc02b',
    ('uniform', 'coefficient_matrix'): 'd15da165aff62bc624280c71374f8d10aea49180adbe3d8e523a50c17961d8fc',
    ('uniform', 'expectation_mean'): '3ea762a71fae639094269cfd88d5dbae4a6a90e10de16094f7d89ad3392aa410',
    ('uniform', 'matrix_scenario_wise'): 'a2f3dd0dae106453c63edc0b2c8c7ca73e113d9f8eab756517104e0c1a3b7e01',
    ('uniform', 'matrix_tuple_wise'): '55d94e8d316ffaf068188fa057d74acd364b4adf788405d90dc10df330681634',
    ('uniform', 'realize'): 'c6a054c1b158a49b9fb6df1203d2be6f7f1dec50b83ddd6358bfd8e6c916c2e6',
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stream_is_pinned(family, path):
    assert _digest(PATHS[path](_model(family))) == PINS[family, path]


if __name__ == "__main__":
    for family in sorted(FAMILIES):
        for path in sorted(PATHS):
            print(f"    ({family!r}, {path!r}): {_digest(PATHS[path](_model(family)))!r},")
