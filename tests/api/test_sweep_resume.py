"""Resumable sweeps: crash after K of N shards, resume, byte-identity.

The fault injector rides the runtime's event stream: raising from the
``on_event`` observer at the Kth ``completed`` event aborts the sweep
*after* the journal write for that shard (``on_result`` — and thus the
journal append — fires before the event), which is exactly the state a
SIGKILL between shards leaves behind.
"""

import hashlib
import json

import pytest

from repro.api import Bound, Session, SessionError

SHAPE = {"t": 16, "h": 12, "w": 12}
SWEEP = dict(shards=4, bound=Bound.nrmse(0.01), seed=7,
             variables=[0], dataset_overrides=SHAPE)
N = 4


class _CrashAfter:
    """on_event observer that kills the sweep after K completions."""

    def __init__(self, k):
        self.k = k
        self.completed = 0

    def __call__(self, event):
        if event.kind == "completed":
            self.completed += 1
            if self.completed >= self.k:
                raise KeyboardInterrupt(
                    f"injected crash after {self.k} shards")


class _CountEvents:
    def __init__(self):
        self.kinds = []

    def __call__(self, event):
        self.kinds.append(event.kind)


def _task_lines(journal_path):
    lines = []
    for line in journal_path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == "task":
            lines.append(record)
    return lines


@pytest.fixture()
def session():
    with Session(codec="szlike", executor="serial") as s:
        yield s


def _reference(session):
    return session.sweep("e3sm", **SWEEP).to_bytes()


class TestCrashResume:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kill_after_k_resume_recomputes_n_minus_k(
            self, session, tmp_path, k):
        reference = _reference(session)
        journal = tmp_path / "sweep.journal"

        with pytest.raises(KeyboardInterrupt):
            session.sweep("e3sm", journal=journal,
                          on_event=_CrashAfter(k), **SWEEP)
        # the journal survived the crash with exactly k durable shards
        assert len(_task_lines(journal)) == k

        counter = _CountEvents()
        archive = session.sweep("e3sm", journal=journal,
                                on_event=counter, **SWEEP)
        assert archive.to_bytes() == reference
        # provably recomputed only the incomplete shards
        assert counter.kinds.count("completed") == N - k
        assert archive.stats["resumed_shards"] == k
        assert archive.stats["computed_shards"] == N - k

    def test_resumed_archive_matches_across_backends(self, tmp_path):
        with Session(codec="szlike", executor="serial") as s:
            reference = _reference(s)
            journal = tmp_path / "sweep.journal"
            with pytest.raises(KeyboardInterrupt):
                s.sweep("e3sm", journal=journal,
                        on_event=_CrashAfter(2), **SWEEP)
        # resume on a *different* backend: still byte-identical
        with Session(codec="szlike", executor="process", workers=2) as s:
            archive = s.sweep("e3sm", journal=journal, **SWEEP)
        assert archive.to_bytes() == reference

    def test_completed_sweep_replays_fully(self, session, tmp_path):
        journal = tmp_path / "sweep.journal"
        first = session.sweep("e3sm", journal=journal, **SWEEP)
        counter = _CountEvents()
        second = session.sweep("e3sm", journal=journal,
                               on_event=counter, **SWEEP)
        assert second.to_bytes() == first.to_bytes()
        assert counter.kinds.count("completed") == 0
        assert second.stats["resumed_shards"] == N


class TestJournalFingerprint:
    """A journal written by an earlier release still resumes: the
    fingerprint over a sweep's facts (dataset spec, codec spec, bound,
    entropy backend, payload format, seed, shard grid, variables) is
    pinned."""

    #: journal header fingerprints, recorded before the facts moved
    #: into one Session method
    PINS = {"spec": ("94134c4a984496ebc8d0ca1bf4fb7b39"
                     "804c2a48d4cbeda90377f690ef783aaf"),
            "wrapped": ("576f1ba15f2f3ebd46394d65526ba9f4"
                        "723e689a0386c5f964819f42abe67d85")}

    @staticmethod
    def _fingerprint(journal):
        return json.loads(journal.read_text().splitlines()[0])[
            "fingerprint"]

    def test_registered_codec(self, session, tmp_path):
        session.sweep("e3sm", journal=tmp_path / "j", **SWEEP)
        assert self._fingerprint(tmp_path / "j") == self.PINS["spec"]

    def test_codec_without_a_spec(self, tmp_path):
        """A wrapped compressor is named by its codec name; the grid is
        a window, not a shard count."""
        from repro.baselines.szlike import SZLikeCompressor
        with Session(codec=SZLikeCompressor(), executor="serial",
                     seed=3, entropy_backend="vrans") as s:
            s.sweep("e3sm", journal=tmp_path / "j", window=5,
                    bound=Bound.pointwise(0.02), dataset_overrides=SHAPE)
        assert self._fingerprint(tmp_path / "j") == self.PINS["wrapped"]


class TestCompressIsUnjournaledSweep:
    """``compress(dataset, ...)`` is ``sweep(..., journal=None)``."""

    #: sha256 of dataset archives (e3sm 12x12x12, dataset seed 3,
    #: variables 0-1, 3 shards, NRMSE 1e-2), written before dataset
    #: compress went through ``sweep``; re-pinned when integer streams
    #: moved to varint headers
    GOLDEN = {"szlike": ("441fb10370abaf48afd917ef484aee75"
                         "4b6a1800c01fa8e7018115593d9c6efd"),
              "dpcm": ("da44efc0e8948969d48a5ab29f06d200"
                       "7226fda3b5537032534fbf7e4373cc7a")}

    @pytest.mark.parametrize("codec", sorted(GOLDEN))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_dataset_compress_pinned(self, codec, executor):
        kwargs = dict(codec=codec, bound=Bound.nrmse(1e-2),
                      variables=[0, 1], shards=3,
                      dataset_overrides=dict(t=12, h=12, w=12, seed=3))
        with Session(executor=executor, workers=2) as s:
            compressed = s.compress("e3sm", **kwargs)
            swept = s.sweep("e3sm", **kwargs)
        digest = hashlib.sha256(compressed.data).hexdigest()
        assert digest == self.GOLDEN[codec]
        assert swept.data == compressed.data
        assert compressed.stats["computed_shards"] == 6
        assert compressed.stats["resumed_shards"] == 0


class TestDamageRecovery:
    def test_corrupted_line_recomputes_only_that_shard(
            self, session, tmp_path):
        reference = _reference(session)
        journal = tmp_path / "sweep.journal"
        session.sweep("e3sm", journal=journal, **SWEEP)

        # mangle one task line in place (bit rot / partial write)
        lines = journal.read_text().splitlines()
        broken = next(i for i, ln in enumerate(lines)
                      if '"kind":"task"' in ln)
        lines[broken] = lines[broken][: len(lines[broken]) // 2]
        journal.write_text("\n".join(lines) + "\n")

        counter = _CountEvents()
        archive = session.sweep("e3sm", journal=journal,
                                on_event=counter, **SWEEP)
        assert archive.to_bytes() == reference
        assert counter.kinds.count("completed") == 1
        assert archive.stats["resumed_shards"] == N - 1

    def test_corrupted_object_recomputes_only_that_shard(
            self, session, tmp_path):
        reference = _reference(session)
        journal = tmp_path / "sweep.journal"
        session.sweep("e3sm", journal=journal, **SWEEP)

        objects = sorted((tmp_path / "sweep.journal.objects").glob("*.bin"))
        objects[0].write_bytes(b"\x00" * objects[0].stat().st_size)

        counter = _CountEvents()
        archive = session.sweep("e3sm", journal=journal,
                                on_event=counter, **SWEEP)
        assert archive.to_bytes() == reference
        assert counter.kinds.count("completed") == 1


class TestGuards:
    def test_resume_false_refuses_nonempty_journal(
            self, session, tmp_path):
        journal = tmp_path / "sweep.journal"
        session.sweep("e3sm", journal=journal, **SWEEP)
        with pytest.raises(SessionError, match="already records"):
            session.sweep("e3sm", journal=journal, resume=False, **SWEEP)

    def test_changed_parameters_rejected(self, session, tmp_path):
        journal = tmp_path / "sweep.journal"
        session.sweep("e3sm", journal=journal, **SWEEP)
        changed = dict(SWEEP, bound=Bound.nrmse(0.02))
        with pytest.raises(SessionError, match="different parameters"):
            session.sweep("e3sm", journal=journal, **changed)

    def test_window_and_shards_are_exclusive(self, session, tmp_path):
        with pytest.raises(SessionError):
            session.sweep("e3sm", shards=4, window=8,
                          bound=Bound.nrmse(0.01),
                          dataset_overrides=SHAPE)

    def test_window_mode_is_resumable(self, session, tmp_path):
        plain = session.sweep("e3sm", window=6, bound=Bound.nrmse(0.01),
                              seed=7, variables=[0],
                              dataset_overrides=SHAPE)
        journal = tmp_path / "sweep.journal"
        kwargs = dict(window=6, bound=Bound.nrmse(0.01), seed=7,
                      variables=[0], dataset_overrides=SHAPE,
                      journal=journal)
        with pytest.raises(KeyboardInterrupt):
            session.sweep("e3sm", on_event=_CrashAfter(1), **kwargs)
        resumed = session.sweep("e3sm", **kwargs)
        assert resumed.to_bytes() == plain.to_bytes()
        assert resumed.stats["resumed_shards"] == 1
        # t=16, window=6 -> shards of 6, 6, 4 frames
        assert resumed.stats["shards"] == 3


class TestCliSweep:
    def test_cli_matches_api_and_resumes(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        common = ["--codec", "szlike", "--shape", "16x12x12",
                  "--shards", "4", "--variable", "0",
                  "--nrmse-bound", "0.01", "--seed", "7",
                  "--executor", "serial"]
        assert main(["sweep", "e3sm", "ref.cdx"] + common) == 0
        assert main(["sweep", "e3sm", "j1.cdx", "--journal",
                     "sweep.journal"] + common) == 0
        # without --resume a warm journal is refused
        assert main(["sweep", "e3sm", "j2.cdx", "--journal",
                     "sweep.journal"] + common) == 2
        assert main(["sweep", "e3sm", "j3.cdx", "--journal",
                     "sweep.journal", "--resume"] + common) == 0
        out = capsys.readouterr().out
        assert "computed=0 resumed=4" in out
        ref = (tmp_path / "ref.cdx").read_bytes()
        assert (tmp_path / "j1.cdx").read_bytes() == ref
        assert (tmp_path / "j3.cdx").read_bytes() == ref

    def test_cli_sweep_matches_compress(self, tmp_path, capsys):
        from repro.cli import main
        sweep_out = tmp_path / "sweep.cdx"
        comp_out = tmp_path / "comp.cdx"
        common = ["--codec", "szlike", "--shape", "16x12x12",
                  "--shards", "4", "--nrmse-bound", "0.01",
                  "--executor", "serial"]
        assert main(["sweep", "e3sm", str(sweep_out), "--variable", "0"]
                    + common) == 0
        assert main(["compress", "--dataset", "e3sm", "--variable", "0",
                     str(comp_out)] + common) == 0
        assert sweep_out.read_bytes() == comp_out.read_bytes()
