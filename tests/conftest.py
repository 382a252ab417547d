import pins


def pytest_report_header(config):
    return pins.describe()
