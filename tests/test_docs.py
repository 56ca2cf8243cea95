"""Documentation hygiene, enforced in CI by the ``docs-check`` and
``contract-check`` jobs.

Three contracts:

* **docstring coverage**: rule ``RL007`` of the built-in analyzer
  (:mod:`repro.devtools`) — every module under ``repro.serving``,
  ``repro.infer``, ``repro.api``, ``repro.retrieval`` and
  ``repro.devtools``, every public top-level definition, and every
  public method on public classes carries a non-empty docstring.
* **markdown link integrity**: rule ``RL008`` — every intra-repo link
  in the README and the ``docs/`` site resolves to a real file.
* **API contract**: the ``/v1`` routes documented in
  ``docs/http_api.md`` match ``GET /v1/openapi.json`` as served by a
  live server — the docs cannot drift from the deployed surface.

The first two are thin wrappers over ``repro lint --rules RL007,RL008``
so the pytest suite and the CI ``static-analysis`` job can never
disagree about what "documented" means.  A fourth guard keeps the
package free of environment knobs: behaviour is configured through
CLI flags and constructor arguments that the docs list, never through
variables a process inherits unseen.
"""

import ast
import os
import re

import pytest

from repro.devtools import (
    DocstringCoverageRule, MarkdownLinkRule, format_findings, run_lint,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint(rule):
    return run_lint(REPO_ROOT, ["src"], [rule])


def test_docstring_coverage_rl007():
    """The analyzer's RL007 sweep over src/ must come back clean."""
    result = _lint(DocstringCoverageRule())
    assert not result.new_findings, \
        "\n" + format_findings(result, "text")


def test_markdown_links_rl008():
    """README + docs/*.md intra-repo links must all resolve (RL008)."""
    result = _lint(MarkdownLinkRule())
    assert not result.new_findings, \
        "\n" + format_findings(result, "text")


def test_markdown_link_rule_sees_the_whole_docs_site():
    """Guard the wrapper itself: RL008 must actually scan every page.

    A rule that silently scanned nothing would pass the test above, so
    pin the minimum set of pages it is required to cover.
    """
    from types import SimpleNamespace
    rule = MarkdownLinkRule()
    scanned = {page.replace(os.sep, "/") for page
               in rule.markdown_files(SimpleNamespace(root=REPO_ROOT))}
    for page in ("README.md", "docs/architecture.md", "docs/http_api.md",
                 "docs/operations.md", "docs/devtools.md"):
        assert page in scanned, f"RL008 does not scan {page}"


def test_package_reads_no_environment_variables():
    """Nothing under src/repro reads ``os.environ`` or ``os.getenv``."""
    names = {"environ", "environb", "getenv"}
    found = []
    for directory, _dirs, files in os.walk(
            os.path.join(REPO_ROOT, "src", "repro")):
        for path in sorted(os.path.join(directory, name) for name in files
                           if name.endswith(".py")):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found += [
                f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}"
                for node in ast.walk(tree)
                if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os")
                or (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and names & {alias.name for alias in node.names})]
    assert not found, f"environment reads in the package: {found}"


def test_docs_pages_exist_and_are_linked_from_readme():
    with open(os.path.join(REPO_ROOT, "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    for page in ("docs/architecture.md", "docs/http_api.md",
                 "docs/operations.md", "docs/devtools.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, page)), page
        assert page in readme, f"README does not link {page}"


# ----------------------------------------------------------------------
# API contract: docs/http_api.md vs the served /v1/openapi.json
# ----------------------------------------------------------------------
#: route-table rows in docs/http_api.md, e.g. ``| GET | [`/v1/healthz`](...)``
DOCS_ROUTE_PATTERN = re.compile(
    r"^\|\s*(GET|POST)\s*\|\s*\[`(/v1/[^`]*)`\]", re.MULTILINE)


def documented_v1_routes() -> set:
    """(method, path) pairs from the docs/http_api.md route table."""
    path = os.path.join(REPO_ROOT, "docs", "http_api.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return {(method, route)
            for method, route in DOCS_ROUTE_PATTERN.findall(text)}


@pytest.fixture(scope="module")
def live_openapi(tiny_fitted_pipeline, small_world, tmp_path_factory):
    """Start a real server and fetch its generated OpenAPI document."""
    from repro.api import TaxonomyClient
    from repro.serving import (
        ArtifactBundle, AsyncServerThread, TaxonomyService,
    )

    directory = str(tmp_path_factory.mktemp("contract_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    service = TaxonomyService(ArtifactBundle.load(directory))
    service.start()
    harness = AsyncServerThread(service)
    host, port = harness.start()
    try:
        yield TaxonomyClient(f"http://{host}:{port}").openapi()
    finally:
        harness.stop()
        service.stop()


class TestApiContract:
    """The documented /v1 surface must equal the served one."""

    def test_docs_table_parses(self):
        routes = documented_v1_routes()
        assert len(routes) >= 10, routes

    def test_every_documented_route_is_served(self, live_openapi):
        missing = [
            (method, path) for method, path in documented_v1_routes()
            if method.lower() not in live_openapi["paths"].get(path, {})]
        assert not missing, \
            f"documented in http_api.md but not served: {missing}"

    def test_every_served_v1_route_is_documented(self, live_openapi):
        documented = documented_v1_routes()
        undocumented = [
            (method.upper(), path)
            for path, operations in live_openapi["paths"].items()
            if path.startswith("/v1/")
            for method in operations
            if (method.upper(), path) not in documented]
        assert not undocumented, \
            f"served but not documented in http_api.md: {undocumented}"

    def test_documented_error_codes_match_registry(self):
        from repro.api import ERROR_CODES
        path = os.path.join(REPO_ROOT, "docs", "http_api.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for code, status in ERROR_CODES.items():
            assert f"`{code}`" in text, \
                f"error code {code!r} missing from http_api.md"
            assert re.search(rf"`{code}`\s*\|\s*{status}\b", text), \
                f"{code} documented with wrong status (expect {status})"
