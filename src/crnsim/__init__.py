"""Stochastic chemical reaction network toolkit.

Modules:

* ``model``      CRN/configuration types, text format, reaction application
* ``analysis``   production stages, density, conservation certificates,
                 exact reachability oracle
* ``kinetics``   exact stochastic simulation (direct method), traces,
                 first-production statistics
* ``processes``  standalone decay / biased-walk / reflecting-walk samplers
* ``bounds``     closed-form tail bounds, constant calculus, Monte Carlo
                 dominance validation
* ``harness``    prebuilt experiments (leader election, doubling chain,
                 scaling scans)
* ``cli``        the ``crnsim`` command-line frontend
"""

from .model import (
    Configuration,
    Crn,
    Reaction,
    SpeciesTable,
    apply_reaction,
    format_crn,
    is_applicable,
    parse_crn,
    support,
)
from .errors import (
    CrnError,
    DomainError,
    HypothesisViolationError,
    NotApplicableError,
    ParseError,
    UnknownSpeciesError,
    UnsupportedReactionOrderError,
)
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Crn",
    "CrnError",
    "DomainError",
    "HypothesisViolationError",
    "NotApplicableError",
    "ParseError",
    "Reaction",
    "SpeciesTable",
    "UnknownSpeciesError",
    "UnsupportedReactionOrderError",
    "apply_reaction",
    "format_crn",
    "is_applicable",
    "parse_crn",
    "substream",
    "support",
]
