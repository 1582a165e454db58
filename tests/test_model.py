import pytest

from mobyreg.model import ConfigError, ModelId, SystemConfig, lookup, make_config

# frozen copy of the parameter table; lookup must match it bit for bit.
# A cured server knows it (oracle) in garay and buhrman and stays silent; in
# bonnet it runs the protocol over its corrupted state; in sasaki it sends as
# a Byzantine server one extra round.  Buhrman agents move with the messages.
EXPECTED = {  # alpha, beta, oracle_enabled, cured_byzantine, moves_in_send
    ModelId.GARAY: (3, 2, True, False, False),
    ModelId.BONNET: (4, 2, False, False, False),
    ModelId.SASAKI: (4, 2, False, True, False),
    ModelId.BUHRMAN: (2, 1, True, False, True),
}


def test_lookup_matches_table():
    for mid, row in EXPECTED.items():
        p = lookup(mid)
        assert p.model is mid
        assert (p.alpha, p.beta, p.oracle_enabled, p.cured_byzantine,
                p.moves_in_send) == row


def test_exactly_four_models():
    assert len(list(ModelId)) == 4


@pytest.mark.parametrize("text,expected", [
    ("garay", ModelId.GARAY), ("M1", ModelId.GARAY), ("m4", ModelId.BUHRMAN),
    ("  Bonnet ", ModelId.BONNET), ("sasaki", ModelId.SASAKI),
])
def test_parse_aliases(text, expected):
    assert ModelId.parse(text) == expected


def test_parse_unknown_rejected():
    with pytest.raises(ConfigError):
        ModelId.parse("lamport")


@pytest.mark.parametrize("n,f,model,expected", [
    (10, 3, ModelId.GARAY, 4),
    (9, 2, ModelId.BONNET, 5),
    (5, 2, ModelId.BUHRMAN, 3),
])
def test_threshold_examples(n, f, model, expected):
    assert make_config(model, n, f).selection_threshold == expected


@pytest.mark.parametrize("n,f,model,expected", [
    (7, 2, ModelId.GARAY, True),
    (6, 2, ModelId.GARAY, False),   # boundary n = 3f
    (8, 2, ModelId.SASAKI, False),  # boundary n = 4f
    (9, 2, ModelId.SASAKI, True),
    (4, 2, ModelId.BUHRMAN, False),
    (5, 2, ModelId.BUHRMAN, True),
])
def test_admissible(n, f, model, expected):
    assert make_config(model, n, f).admissible is expected


def test_threshold_exceeds_f_whenever_admissible():
    # quantified over every model, 1 <= f <= 10, n = alpha*f+1 .. alpha*f+10
    for mid in ModelId:
        p = lookup(mid)
        for f in range(1, 11):
            for n in range(p.alpha * f + 1, p.alpha * f + 11):
                cfg = SystemConfig(n=n, f=f, params=p)
                assert cfg.admissible
                assert cfg.selection_threshold > f


def test_system_config_checks_bounds():
    with pytest.raises(ConfigError):
        SystemConfig(n=0, f=0, params=lookup(ModelId.GARAY))
    with pytest.raises(ConfigError):
        SystemConfig(n=5, f=-1, params=lookup(ModelId.GARAY))
    with pytest.raises(ConfigError):
        SystemConfig(n=2, f=3, params=lookup(ModelId.GARAY))
    assert not SystemConfig(n=2, f=2, params=lookup(ModelId.GARAY)).admissible


@pytest.mark.parametrize("n, f, message", [
    (7.0, 2, "n 7.0 is not an integer"),
    (7, 2.0, "f 2.0 is not an integer"),
    (7, True, "f True is not an integer"),
    (True, 0, "n True is not an integer"),
    ("7", 2, "n '7' is not an integer"),
])
def test_system_config_wants_integer_n_and_f(n, f, message):
    # a float would end in a TypeError inside run(), and a bool is no count
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make_config("garay", n, f)


def test_system_config_threshold_and_raw_formula():
    cfg = make_config("garay", 7, 2)
    assert cfg.admissible and cfg.selection_threshold == 3
    boundary = make_config("garay", 6, 2)
    assert not boundary.admissible
    assert boundary.selection_threshold == 2  # raw formula, for bound demos


def test_model_serialization_names():
    assert [m.value for m in ModelId] == ["garay", "bonnet", "sasaki", "buhrman"]
