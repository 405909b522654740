"""The benchmark's workloads, built from a base seed.

Each workload turns the seed into a plan: the configurations of one
round, made through `load_config` from INI text the way a user's file
would be read.  `steps` lists the timed steps of one round, which drive
cclab only through its library entry points.  `check_round` checks every
operation of the round (an operation is one `run_single` call or one
matrix cell), and `repeat` re-runs one operation to check determinism.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass

from cclab import config as config_mod
from cclab import matrix as matrix_mod
from cclab import runner as runner_mod

import checks

VARIANTS = ("newreno", "westwood+", "bic", "cubic")


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"cclab-bench/{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


@dataclass
class Outcome:
    """What one round produced, reduced to what the checks and metrics need."""
    raised: dict[str, str]          # op label -> exception text
    wrong: dict[str, list[str]]     # op label -> failed checks
    sim_s: float                    # simulated flow-seconds (sum of duration_us)
    packets: int                    # link packets delivered


class LongRuns:
    """Each variant as long-lived flows over several seeds, one run_single per op."""

    def __init__(self, name: str, flows: int, duration_s: float, seeds: int,
                 write_outputs: bool):
        self.name = name
        self.flows = flows
        self.duration_s = duration_s
        self.seeds = seeds
        self.write_outputs = write_outputs   # run the way `cclab run` runs it

    def build(self, seed: int) -> list:
        configs = []
        for run_seed in derive_seeds(self.name, seed, self.seeds):
            for variant in VARIANTS:
                configs.append(config_mod.load_config(text=(
                    "[experiment]\n"
                    f"variant = {variant}\n"
                    f"flows = {self.flows}\n"
                    "scenario = long_lived\n"
                    f"duration_s = {self.duration_s:g}\n"
                    f"seed = {run_seed}\n")))
        return configs

    def operations(self, plan) -> int:
        return len(plan)

    @staticmethod
    def label(config) -> str:
        return f"{config.variant}/seed{config.seed}"

    def _run(self, config, out_dir: str | None):
        result = runner_mod.run_single(config, seed=config.seed,
                                       capture_timeseries=self.write_outputs)
        if out_dir is not None:
            runner_mod.write_run_outputs(out_dir, config, result)
        return result

    def steps(self, plan, out_dir: str) -> list:
        return [functools.partial(self._step, config, os.path.join(out_dir, f"op{i}"))
                for i, config in enumerate(plan)]

    def _step(self, config, run_dir: str):
        try:
            return self._run(config, run_dir if self.write_outputs else None)
        except Exception as exc:  # one failed run must not hide the others
            return exc

    def check_round(self, plan, results, out_dir: str) -> Outcome:
        outcome = Outcome({}, {}, 0.0, 0)
        for i, (config, result) in enumerate(zip(plan, results)):
            label = self.label(config)
            if isinstance(result, Exception):
                outcome.raised[label] = f"{type(result).__name__}: {result}"
                continue
            errors = checks.check_run(config, result, config.scenario, self.flows)
            if self.write_outputs:
                errors += checks.check_run_files(os.path.join(out_dir, f"op{i}"),
                                                 config, result)
            if errors:
                outcome.wrong[label] = errors
            outcome.sim_s += sum(f.duration_us for f in result.flows) / 1e6
            outcome.packets += result.link_delivered
        return outcome

    def reference(self, plan, results):
        """The first operation's summary, kept to compare a repeat against."""
        if isinstance(results[0], Exception):
            return None
        return runner_mod.summary_dict(plan[0], results[0])

    def repeat(self, plan, reference) -> tuple[str, list[str]]:
        config = plan[0]
        again = self._run(config, None)
        return self.label(config), checks.compare_summaries(
            reference, runner_mod.summary_dict(config, again))


class MatrixCampaign:
    """One run_matrix + write_matrix_outputs campaign on the program's own pool."""

    def __init__(self, name: str, variants: tuple[str, ...], flows: tuple[int, ...],
                 scenarios: tuple[str, ...], runs: int, workers: int):
        self.name = name
        self.variants = variants
        self.flows = flows
        self.scenarios = scenarios
        self.runs = runs
        self.workers = workers

    def build(self, seed: int):
        return config_mod.load_config(text=(
            "[experiment]\n"
            f"seed = {derive_seeds(self.name, seed, 1)[0]}\n"
            f"workers = {self.workers}\n"
            "\n[matrix]\n"
            f"variants = {','.join(self.variants)}\n"
            f"flows = {','.join(map(str, self.flows))}\n"
            f"scenarios = {','.join(self.scenarios)}\n"
            f"runs = {self.runs}\n"))

    def operations(self, plan) -> int:
        return len(self.variants) * len(self.flows) * len(self.scenarios)

    @staticmethod
    def label(tag: str, flows: int, variant: str) -> str:
        return f"{tag}/f{flows}/{variant}"

    def _expected(self):
        specs = [config_mod.parse_scenario(token) for token in self.scenarios]
        return [(spec, flows, variant) for spec in specs
                for flows in self.flows for variant in self.variants]

    def steps(self, plan, out_dir: str) -> list:
        return [functools.partial(self._campaign, plan, out_dir)]

    def _campaign(self, plan, out_dir: str):
        try:
            cells = matrix_mod.run_matrix(plan)
            matrix_mod.write_matrix_outputs(out_dir, plan, cells)
        except Exception as exc:  # counted as every cell failing
            return exc
        return cells

    def check_round(self, plan, results, out_dir: str) -> Outcome:
        outcome = Outcome({}, {}, 0.0, 0)
        cells = results[0]
        expected = self._expected()
        if isinstance(cells, Exception):
            for spec, flows, variant in expected:
                outcome.raised[self.label(spec.tag, flows, variant)] = repr(cells)
            return outcome
        by_key = {(c.scenario_tag, c.flows, c.variant): c for c in cells}
        for spec, flows, variant in expected:
            label = self.label(spec.tag, flows, variant)
            cell = by_key.get((spec.tag, flows, variant))
            if cell is None:
                outcome.wrong[label] = ["cell missing from run_matrix's result"]
                continue
            if not cell.ok:
                outcome.raised[label] = cell.error
                continue
            errors = [] if len(cell.runs) == self.runs else \
                [f"{len(cell.runs)} runs, {self.runs} configured"]
            for run in cell.runs:
                errors += [f"run {run.run_index}: {message}" for message in
                           checks.check_run(plan, run, spec, flows)]
                outcome.sim_s += sum(f.duration_us for f in run.flows) / 1e6
                outcome.packets += run.link_delivered
            if errors:
                outcome.wrong[label] = errors
        for label, errors in checks.check_matrix_outputs(out_dir, plan, cells,
                                                         self.label).items():
            outcome.wrong.setdefault(label, []).extend(errors)
        return outcome

    def _repeat_key(self):
        """The cell whose run 0 is repeated: first scenario, most flows, last variant."""
        return self._expected()[len(self.flows) * len(self.variants) - 1]

    def reference(self, plan, results):
        cells = results[0]
        if isinstance(cells, Exception):
            return None
        spec, flows, variant = self._repeat_key()
        for cell in cells:
            if (cell.scenario_tag, cell.flows, cell.variant) == (spec.tag, flows, variant) \
                    and cell.ok:
                return runner_mod.summary_dict(plan, cell.runs[0])
        return None

    def repeat(self, plan, reference) -> tuple[str, list[str]]:
        spec, flows, variant = self._repeat_key()
        again = runner_mod.run_single(plan, seed=plan.seed, run_index=0,
                                      variant=variant, flows=flows, scenario=spec)
        return self.label(spec.tag, flows, variant), checks.compare_summaries(
            reference, runner_mod.summary_dict(plan, again))


def make(name: str, tiny: bool = False):
    """The named workload at its benchmark size, or at a size for the self-test."""
    if name == "long_1flow":
        return LongRuns(name, flows=1, duration_s=20 if tiny else 180,
                        seeds=1 if tiny else 2, write_outputs=True)
    if name == "long_4flow":
        return LongRuns(name, flows=4, duration_s=20 if tiny else 600,
                        seeds=1, write_outputs=False)
    if name == "matrix_mix":
        if tiny:
            return MatrixCampaign(name, ("newreno", "cubic"), (1, 2),
                                  ("long_lived", "short:50"), runs=1, workers=2)
        return MatrixCampaign(name, VARIANTS, (1, 2),
                              ("long_lived", "short:50", "short:1000"), runs=2, workers=2)
    raise KeyError(name)

