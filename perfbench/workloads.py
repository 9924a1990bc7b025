"""The benchmark's workloads: the CLI invocation of each, its inputs, and the
operations that fail in every run because of a known program defect.

Each input is written once, in a Workload field; the config file the CLI
reads is built from those fields (`Workload.config`), and the checks compare
against the same fields.

Standard library only: run.py imports this, and the process that spawns the
CLI must stay small (see run.py).
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = {"all": ("closed", "ode", "grid"), "ode": ("closed", "ode"), "grid": ("closed", "grid")}


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand, "swap" or "cat-state"
    oracle: str
    models: tuple[str, ...]
    delta: float
    alpha: complex = 0j  # swap inputs |alpha>|beta>
    beta: complex = 0j
    cat_amp: complex = 0j  # cat-state: the even cat (|g> + |-g>)/N against a vacuum partner
    samples: int = 200  # the program's default
    random_pairs: int = 0
    expected_failures: frozenset[str] = frozenset()

    @property
    def methods(self) -> tuple[str, ...]:
        """The rows of moments.csv and fidelity.csv the swap report holds."""
        return METHODS[self.oracle]

    @property
    def config(self) -> str:
        """The config file the CLI reads."""
        if self.command == "swap":
            state = [f"alpha = {_complex_text(self.alpha)}", f"beta = {_complex_text(self.beta)}"]
        else:
            state = [f"cat_alpha = {_complex_text(self.cat_amp)}", "beta = 0"]
        if self.random_pairs:
            state.append(f"random_pairs = {self.random_pairs}")
        sections = {
            "run": [
                f"kind = {self.command.replace('-', '_')}",
                f"oracle = {self.oracle}",
                f"samples = {self.samples}",
                "models = " + ", ".join(self.models),
            ],
            "params": [f"delta = {self.delta!r}"],
            "state": state,
        }
        return "\n".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="swap_grid",
            command="swap",
            oracle="all",
            models=("qg_full", "sceg"),
            delta=0.1,
            alpha=2 + 0j,
            beta=-1 + 0j,
            # D1: the default dt_factor = 5e-4 leaves a 1.15e-5 grid mean error
            # against grid_agreement = 1e-5, for both models, in every run.
            # The checks bound the same error at GRID_MEAN_BOUND without
            # excuse, so a grid regression beyond D1 still fails the run.
            expected_failures=frozenset(
                {
                    "verdict:qg_full_grid_mean_agreement",
                    "verdict:sceg_grid_mean_agreement",
                    "ref:qg_full_grid_means",
                    "ref:sceg_grid_means",
                }
            ),
        ),
        Workload(
            name="cat_state",
            command="cat-state",
            oracle="grid",
            models=("qg_rwa", "sceg"),
            delta=0.2,
            cat_amp=2 + 0j,
        ),
        Workload(
            name="swap_ode",
            command="swap",
            oracle="ode",
            models=("qg_rwa", "qg_full", "sceg"),
            delta=0.02,
            alpha=2 + 1j,
            beta=-1 + 0.5j,
            samples=20000,
            random_pairs=10000,
        ),
    )
}
